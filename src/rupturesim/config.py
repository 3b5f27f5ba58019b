"""Model parameters, scenario files, and admissibility checks.

A scenario is a flat JSON document holding the physical parameters of the
bubble-layer model (domain length, junction positions and slope-jump
strengths, diffusivities, relaxation and evaporation rates, rupture
thresholds) plus a ``numerics`` block with discretization knobs.  This
module owns loading, saving, and validation of those documents; every
other module consumes the frozen :class:`ModelConfig`.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

from .errors import DomainError, ParseError, SchemaError

MODES = ("decoupled", "coupled")
REDUCTION_CASES = ("case_i", "case_ii")


@dataclass(frozen=True)
class Numerics:
    """Discretization knobs; every field has a usable default."""

    grid_points: int = 1024
    dt: float = 1.0e-4
    event_tol: float = 1.0e-6
    fp_tol: float = 1.0e-6
    max_ruptures: int = 100

    def __post_init__(self) -> None:
        if self.grid_points < 4:
            raise DomainError("numerics.grid_points must be at least 4")
        for name in ("dt", "event_tol", "fp_tol"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise DomainError(f"numerics.{name} must be positive and finite")
        if self.dt < sys.float_info.min:
            # a subnormal step overflows every count of steps taken from it
            raise DomainError("numerics.dt must be at least the smallest normal float")
        if self.max_ruptures < 1:
            raise DomainError("numerics.max_ruptures must be at least 1")


@dataclass(frozen=True)
class ModelConfig:
    """All physical parameters of the model, immutable after construction.

    ``junctions`` are the ordered bubble-boundary positions in ``[0, omega)``
    and ``jump_strengths`` the matching slope-jump constants.  ``mode``
    selects the single reduced equation for the layer thickness
    (``decoupled``) or the full height/surface pair (``coupled``);
    ``reduction_case`` selects which reduction scales the forcing in
    decoupled mode (``case_i``: by ``1/tau``; ``case_ii``: by
    ``sigma2/sigma1``).
    """

    omega: float
    junctions: tuple[float, ...]
    jump_strengths: tuple[float, ...]
    forcing_offset: float
    sigma1: float
    sigma2: float
    tau: float
    alpha: float
    eta_c: float
    eta_a: float
    d: float
    mode: str = "decoupled"
    reduction_case: str = "case_i"
    numerics: Numerics = field(default_factory=Numerics)

    def __post_init__(self) -> None:
        # tuples keep the config hashable, so it can key cached operators
        object.__setattr__(self, "junctions", tuple(self.junctions))
        object.__setattr__(self, "jump_strengths", tuple(self.jump_strengths))
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise DomainError("omega must be positive and finite")
        k = len(self.junctions)
        if k < 1:
            raise DomainError("at least one junction is required")
        if len(self.jump_strengths) != k:
            raise DomainError("jump_strengths must match junctions in length")
        if self.junctions[0] < 0.0 or self.junctions[-1] >= self.omega:
            raise DomainError("junctions must lie in [0, omega)")
        for lo, hi in zip(self.junctions, self.junctions[1:]):
            if not lo < hi:
                raise DomainError("junctions must be strictly increasing")
        for name in ("sigma1", "sigma2", "tau", "d"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise DomainError(f"{name} must be positive and finite")
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise DomainError("alpha must be nonnegative and finite")
        if not self.eta_c > 0.0:
            raise DomainError("eta_c must be positive")
        if not (self.eta_a > self.eta_c and math.isfinite(self.eta_a)):
            raise DomainError("eta_a must be finite and exceed eta_c")
        if not math.isfinite(self.forcing_offset):
            raise DomainError("forcing_offset must be finite")
        for x in self.junctions + self.jump_strengths:
            if not math.isfinite(x):
                raise DomainError("junctions and jump_strengths must be finite")
        if self.mode not in MODES:
            raise DomainError(f"mode must be one of {MODES}")
        if self.reduction_case not in REDUCTION_CASES:
            raise DomainError(f"reduction_case must be one of {REDUCTION_CASES}")
        _, strengths, offset = effective_parameters(self)
        try:  # validate, the stationary solve and the bounds take these sums
            sums = math.fsum(self.jump_strengths), math.fsum(strengths)
        except (OverflowError, ValueError):  # an overflow, or inf - inf
            sums = (math.inf,)
        if not all(math.isfinite(x) for x in (*sums, offset)):
            raise DomainError(
                "jump_strengths must have a finite sum, also as scaled by the "
                "reduction, and the scaled forcing_offset must be finite"
            )


class ValidationReport(NamedTuple):
    """Outcome of the admissibility checks; validation never raises."""

    condition_C_holds: bool
    integral_f: float
    mass_conserving: bool


def effective_parameters(config: ModelConfig) -> tuple[float, tuple[float, ...], float]:
    """Return ``(sigma, jump_strengths, forcing_offset)`` of the reduced
    single equation for the layer thickness.

    Case (i) divides the forcing by ``tau``; case (ii) scales it by
    ``sigma2/sigma1``.  The diffusivity is ``sigma2`` in both cases.
    """
    if config.reduction_case == "case_i":
        scale = 1.0 / config.tau
    else:
        scale = config.sigma2 / config.sigma1
    strengths = tuple(c * scale for c in config.jump_strengths)
    return config.sigma2, strengths, config.forcing_offset * scale


def validate(config: ModelConfig) -> ValidationReport:
    """Check the sign condition on the forcing and mass conservation.

    Pure function of the config: the report states whether all jump
    strengths are nonnegative and the constant part dominates their mean
    (so the forcing has nonpositive integral), the value of that integral,
    and whether the offset is the exact mass-conserving choice.
    """
    total = math.fsum(config.jump_strengths)
    target = total / config.omega
    nonneg = all(c >= 0.0 for c in config.jump_strengths)
    condition_c = nonneg and config.forcing_offset >= target
    integral_f = total - config.forcing_offset * config.omega
    scale = max(abs(config.forcing_offset), abs(target))
    mass = abs(config.forcing_offset - target) <= 1.0e-12 * scale or scale == 0.0
    return ValidationReport(
        condition_C_holds=condition_c, integral_f=integral_f, mass_conserving=mass
    )


def _as_float(raw: object, key: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise SchemaError(f"field {key!r} must be a number")
    return float(raw)


def _as_int(raw: object, key: str) -> int:
    if isinstance(raw, bool):
        raise SchemaError(f"field {key!r} must be an integer")
    if isinstance(raw, int):
        return raw
    if isinstance(raw, float) and raw.is_integer():
        return int(raw)
    raise SchemaError(f"field {key!r} must be an integer")


def _as_float_tuple(raw: object, key: str) -> tuple[float, ...]:
    if not isinstance(raw, (list, tuple)):
        raise SchemaError(f"field {key!r} must be an array of numbers")
    return tuple(_as_float(v, key) for v in raw)


def _as_str(raw: object, key: str) -> str:
    if not isinstance(raw, str):
        raise SchemaError(f"field {key!r} must be a string")
    return raw


def _from_dict(cls, raw: object, key: str):
    """Build the dataclass ``cls`` from a JSON object, reading each field by
    its annotation (a string, as annotations are postponed in this module).
    ``key`` is the object's dotted path, empty for the scenario itself.  A
    field without a default is required, and so is ``mode``: a scenario must
    name its mode, the library default serves direct construction only."""
    if not isinstance(raw, dict):
        if key:
            raise SchemaError(f"field {key!r} must be an object")
        raise SchemaError("scenario document must be a JSON object")
    where = key or "scenario"
    spec = fields(cls)
    names = {f.name for f in spec}
    unknown = set(raw) - names
    if unknown:
        raise SchemaError(f"unknown {where} fields: {sorted(unknown)}")
    required = {f.name for f in spec if f.default is MISSING and f.default_factory is MISSING}
    missing = (required | (names & {"mode"})) - set(raw)
    if missing:
        raise SchemaError(f"missing {where} fields: {sorted(missing)}")
    prefix = f"{key}." if key else ""
    return cls(**{
        f.name: _READERS[f.type](raw[f.name], prefix + f.name) for f in spec if f.name in raw
    })


_READERS = {
    "float": _as_float,
    "int": _as_int,
    "str": _as_str,
    "tuple[float, ...]": _as_float_tuple,
    "Numerics": lambda raw, key: _from_dict(Numerics, raw, key),
}


def config_from_dict(raw: dict) -> ModelConfig:
    """Build a config from a plain dict, applying defaults for the optional
    ``reduction_case`` and ``numerics`` entries."""
    return _from_dict(ModelConfig, raw, "")


def config_to_dict(config: ModelConfig) -> dict:
    """Full scenario dict; inverse of :func:`config_from_dict`."""
    return asdict(
        config,
        dict_factory=lambda items: {k: list(v) if isinstance(v, tuple) else v for k, v in items},
    )


def read_scenario(path: str | Path) -> dict:
    """Parse a scenario file into a plain dict; a file that cannot be read,
    malformed JSON or text that is not UTF-8 raises :class:`ParseError`."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_scenario(path: str | Path) -> ModelConfig:
    """Load and validate a scenario file.

    Raises :class:`ParseError` for malformed JSON, :class:`SchemaError` for
    missing/unknown/ill-typed fields, and :class:`DomainError` when a value
    violates a model invariant.
    """
    return config_from_dict(read_scenario(path))


def save_scenario(config: ModelConfig, path: str | Path) -> None:
    """Write the scenario as JSON; round-trips bit-exactly through
    :func:`load_scenario` for all finite double fields."""
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2) + "\n")
