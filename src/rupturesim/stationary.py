"""Closed-form stationary profile of the reduced layer-thickness equation.

Off the junctions the stationary profile solves
``sigma * s'' - alpha * s = A`` and is therefore a constant plus a pair of
exponentials on each junction interval, with ``lam = sqrt(alpha/sigma)``.
At each junction the derivative drops by ``c_k/sigma``.  Each interval's
pair is scaled to its own length ``L``: one exponential decays from the
right end and one from the left, ``exp(-lam*(L - u))`` and ``exp(-lam*u)``
with ``u`` the distance from the left end, so neither exceeds 1 on the
interval and no entry of the linear system exceeds ``max(1, lam)``,
however stiff the evaporation.  One per-interval evaluator gives the
value, slope and curvature of either family to every query.

For ``alpha = 0`` the profile is piecewise quadratic, exists only when the
offset is the mass-conserving choice, and is normalized here to zero mean
(the continuous problem leaves the additive constant free).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import ModelConfig, effective_parameters
from .errors import DomainError, NoSolutionError, SingularSystemError, UnsupportedError

_RESIDUAL_TOL = 1.0e-8


@dataclass(frozen=True)
class StationaryProfile:
    """Piecewise closed form of the stationary profile.

    ``lengths[k]`` is the length ``L_k`` of the k-th interval.  For
    ``alpha > 0`` row ``k`` of ``coeffs`` holds the exponential pair
    ``(p_k, q_k)`` so that on the k-th interval
    ``s(x) = offset + p_k*exp(-lam*(L_k - u)) + q_k*exp(-lam*u)`` with
    ``u = x - a_k``; neither exponential exceeds 1 on the interval.  For
    the degenerate ``alpha = 0`` branch (``alpha_zero`` set) row ``k``
    holds ``(slope_k, value_k)`` of
    ``s(x) = quad_lead*u**2 + slope_k*u + value_k`` instead.
    """

    omega: float
    junctions: np.ndarray
    lengths: np.ndarray
    sigma: float
    alpha: float
    forcing_offset: float
    lam: float
    offset: float
    coeffs: np.ndarray
    alpha_zero: bool = False
    quad_lead: float = 0.0

    @property
    def num_intervals(self) -> int:
        return len(self.junctions)


@dataclass(frozen=True)
class SReport:
    """Localization check of the rupture threshold against the profile.

    ``condition_S_holds`` is true exactly when one interval dips to or
    below the threshold on its closure, the profile stays above the
    threshold everywhere else, and stays below the reset level on the
    closure of that single interval (``eta_a_clearance``).
    """

    rupture_interval_index: int | None
    min_per_interval: tuple[tuple[int, float], ...]
    condition_S_holds: bool
    eta_a_clearance: bool


def solve_stationary(config: ModelConfig) -> StationaryProfile:
    """Solve the continuity/jump system for the unique stationary profile.

    Requires ``alpha > 0``; the degenerate case is handled by
    :func:`solve_stationary_alpha0`.  Raises
    :class:`SingularSystemError` if the assembled system cannot be solved
    to the expected residual.
    """
    if config.alpha <= 0.0:
        raise UnsupportedError("alpha must be positive; use solve_stationary_alpha0")
    sigma, strengths, offset_a = effective_parameters(config)
    lam = math.sqrt(config.alpha / sigma)
    junctions = np.asarray(config.junctions, dtype=float)
    lengths = interval_lengths(junctions, config.omega)
    if math.exp(-lam * lengths.min()) == 1.0:
        # the pair of the shortest interval is one function in float64, and
        # the system is singular
        raise DomainError(
            f"evaporation too weak against diffusion for the stationary profile: "
            f"lam = {lam:g} leaves the two exponentials of an interval equal"
        )
    matrix, rhs = _jump_system(lam, lengths, strengths, sigma)
    try:
        solution = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    residual = np.max(np.abs(matrix @ solution - rhs))
    if not np.isfinite(residual) or residual > _RESIDUAL_TOL * (1.0 + np.max(np.abs(rhs))):
        raise SingularSystemError(f"stationary solve residual {residual:g}")

    return StationaryProfile(
        omega=config.omega,
        junctions=junctions,
        lengths=lengths,
        sigma=sigma,
        alpha=config.alpha,
        forcing_offset=offset_a,
        lam=lam,
        offset=-offset_a / config.alpha,
        coeffs=solution.reshape(-1, 2),
    )


def _jump_system(lam, lengths, strengths, sigma) -> tuple[np.ndarray, np.ndarray]:
    """Matrix and right side of the conditions on ``(p_0, q_0, p_1, ...)``:
    row ``2j`` is continuity at the right end of interval ``j``, row
    ``2j + 1`` the slope jump ``-c_m/sigma`` there, ``m = j + 1`` mod the
    interval count.  Every entry is at most ``max(1, lam)`` in size."""
    k = len(lengths)
    decay = np.exp(-lam * lengths)
    matrix = np.zeros((2 * k, 2 * k))
    rhs = np.zeros(2 * k)
    for j in range(k):
        m = (j + 1) % k
        matrix[2 * j, 2 * j : 2 * j + 2] += (1.0, decay[j])
        matrix[2 * j, 2 * m : 2 * m + 2] -= (decay[m], 1.0)
        matrix[2 * j + 1, 2 * m : 2 * m + 2] += (lam * decay[m], -lam)
        matrix[2 * j + 1, 2 * j : 2 * j + 2] -= (lam, -lam * decay[j])
        rhs[2 * j + 1] = -strengths[m] / sigma
    return matrix, rhs


def solve_stationary_alpha0(config: ModelConfig) -> StationaryProfile:
    """Piecewise-quadratic stationary profile for ``alpha = 0``.

    Exists only when the forcing offset equals the mean jump strength
    (zero forcing integral); otherwise raises :class:`NoSolutionError`.
    The free additive constant is fixed by zero mean over one period.
    """
    if config.alpha != 0.0:
        raise UnsupportedError("alpha must be zero; use solve_stationary")
    sigma, strengths, offset_a = effective_parameters(config)
    total = math.fsum(strengths)
    target = total / config.omega
    scale = max(abs(offset_a), abs(target))
    if abs(offset_a - target) > 1.0e-12 * scale:
        raise NoSolutionError(
            "no stationary profile: forcing offset is not the mass-conserving choice"
        )

    junctions = np.asarray(config.junctions, dtype=float)
    k = len(junctions)
    lengths = interval_lengths(junctions, config.omega)
    lead = offset_a / (2.0 * sigma)

    # slope_j = t + dslope_j and value_j = base_j + t*(a_j - a_0); the
    # periodic continuity wrap determines t since the jump wrap is the
    # solvability condition already checked above.
    dslope = np.zeros(k)
    base = np.zeros(k)
    for j in range(k - 1):
        dslope[j + 1] = dslope[j] + (offset_a / sigma) * lengths[j] - strengths[j + 1] / sigma
        base[j + 1] = base[j] + lead * lengths[j] ** 2 + dslope[j] * lengths[j]
    last = k - 1
    t = -(base[last] + lead * lengths[last] ** 2 + dslope[last] * lengths[last]) / config.omega
    slope = dslope + t
    value = base + t * (junctions - junctions[0])

    profile = StationaryProfile(
        omega=config.omega,
        junctions=junctions,
        lengths=lengths,
        sigma=sigma,
        alpha=0.0,
        forcing_offset=offset_a,
        lam=0.0,
        offset=0.0,
        coeffs=np.column_stack([slope, value]),
        alpha_zero=True,
        quad_lead=lead,
    )
    return replace(profile, coeffs=np.column_stack([slope, value - profile_mean(profile)]))


def interval_lengths(junctions: np.ndarray, omega: float) -> np.ndarray:
    """Length ``a_{k+1} - a_k`` of each junction interval, the last one
    wrapping to ``a_0 + omega``."""
    return np.append(junctions[1:], junctions[0] + omega) - junctions


def interval_index(junctions, positions) -> np.ndarray:
    """0-based index of the half-open junction interval ``[a_k, a_{k+1})``
    holding each position in ``[0, omega)``; positions before ``a_0`` wrap
    into the last interval."""
    idx = np.searchsorted(junctions, positions, side="right") - 1
    return np.where(idx < 0, len(junctions) - 1, idx)


def _locate(profile: StationaryProfile, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interval index and local coordinate for positions reduced mod omega."""
    xs = np.asarray(x, dtype=float) % profile.omega
    idx = interval_index(profile.junctions, xs)
    u = (xs - profile.junctions[idx]) % profile.omega
    return idx, u


def _pieces(profile: StationaryProfile, idx, u) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value, slope and curvature of the closed form of interval ``idx`` at
    local coordinate ``u``; broadcasts over both."""
    first, second = profile.coeffs[idx, 0], profile.coeffs[idx, 1]
    if profile.alpha_zero:
        lead = profile.quad_lead
        curvature = np.full(np.shape(u), 2.0 * lead)
        return lead * u**2 + first * u + second, 2.0 * lead * u + first, curvature
    lam = profile.lam
    grow = first * np.exp(-lam * (profile.lengths[idx] - u))
    decay = second * np.exp(-lam * u)
    pair = grow + decay
    # the slope and curvature of a profile far steeper than its values may
    # pass the float range; they are then infinite
    with np.errstate(over="ignore"):
        return profile.offset + pair, lam * (grow - decay), lam * lam * pair


def eval_stationary(profile: StationaryProfile, x) -> np.ndarray | float:
    """Evaluate the profile at scalar or array positions."""
    out, _, _ = _pieces(profile, *_locate(profile, x))
    return out if out.ndim else float(out)


def junction_slope_jump(profile: StationaryProfile, k: int) -> float:
    """Derivative jump ``s'(a_k+0) - s'(a_k-0)`` from the closed forms."""
    left = (k - 1) % profile.num_intervals
    _, slopes, _ = _pieces(profile, np.array([k, left]), np.array([0.0, profile.lengths[left]]))
    return float(slopes[0] - slopes[1])


def ode_residual(profile: StationaryProfile, x) -> np.ndarray | float:
    """``sigma*s'' - alpha*s - A`` evaluated from the closed forms."""
    s, _, second = _pieces(profile, *_locate(profile, x))
    out = profile.sigma * second - profile.alpha * s - profile.forcing_offset
    return out if np.ndim(out) else float(out)


def interval_extrema(profile: StationaryProfile) -> list[tuple[float, float]]:
    """Exact ``(min, max)`` of the profile on the closure of each interval.

    Uses the endpoints plus the single interior turning point, where the
    slope vanishes, when it falls inside: ``u* = L/2 + log(q/p)/(2*lam)``
    of an exponential pair with ``p*q > 0``, or the quadratic's vertex.  The
    result does not depend on any sampling grid.
    """
    lengths = profile.lengths
    first, second = profile.coeffs.T
    with np.errstate(divide="ignore", invalid="ignore"):
        if profile.alpha_zero:
            turn = -first / (2.0 * profile.quad_lead)
        else:
            turn = lengths / 2.0 + np.log(second / first) / (2.0 * profile.lam)
    # a turning point outside the open interval is replaced by its left end
    turn = np.where((0.0 < turn) & (turn < lengths), turn, 0.0)
    u = np.stack((np.zeros_like(lengths), lengths, turn))
    values, _, _ = _pieces(profile, np.arange(profile.num_intervals), u)
    return [(float(lo), float(hi)) for lo, hi in zip(values.min(axis=0), values.max(axis=0))]


def profile_mean(profile: StationaryProfile) -> float:
    """Exact mean of the profile over one period."""
    lengths = profile.lengths
    first, second = profile.coeffs.T
    if profile.alpha_zero:
        lead = profile.quad_lead
        total = np.sum(lead * lengths**3 / 3.0 + first * lengths**2 / 2.0 + second * lengths)
        return float(total / profile.omega)
    total = np.sum((first + second) * -np.expm1(-profile.lam * lengths)) / profile.lam
    return float(profile.offset + total / profile.omega)


def check_condition_S(profile: StationaryProfile, config: ModelConfig) -> SReport:
    """Decide whether the threshold localizes ruptures to one interval.

    Refuses ``alpha = 0`` profiles: their additive constant is a
    normalization choice here, and the decision would depend on it.
    """
    if profile.alpha_zero:
        raise UnsupportedError(
            "threshold localization is undefined for the alpha = 0 profile family"
        )
    eta_c = config.eta_c
    extrema = interval_extrema(profile)
    mins = tuple((k, lo) for k, (lo, _) in enumerate(extrema))
    below = [k for k, (lo, _) in enumerate(extrema) if lo <= eta_c]

    index: int | None = None
    clearance = False
    holds = False
    if len(below) == 1:
        index = below[0]
        clearance = bool(extrema[index][1] < config.eta_a)
        if profile.num_intervals == 1:
            # complement of the single open interval is just the junction point
            complement_ok = float(eval_stationary(profile, profile.junctions[0])) > eta_c
        else:
            complement_ok = all(lo > eta_c for k, (lo, _) in enumerate(extrema) if k != index)
        holds = bool(clearance and complement_ok)
    return SReport(
        rupture_interval_index=index,
        min_per_interval=mins,
        condition_S_holds=holds,
        eta_a_clearance=clearance,
    )
