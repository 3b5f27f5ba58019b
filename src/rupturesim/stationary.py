"""Closed-form stationary profile of the reduced layer-thickness equation.

Off the junctions the stationary profile solves
``sigma * s'' - alpha * s = A`` and is therefore a constant plus a pair of
exponentials ``exp(+-lam*(x - a_k))`` on each junction interval, with
``lam = sqrt(alpha/sigma)``.  At each junction the derivative drops by
``c_k/sigma``.  Coefficients are parameterized locally per interval so the
largest exponent is ``lam`` times the interval length, which keeps the
linear system well conditioned even for stiff evaporation rates.

For ``alpha = 0`` the profile is piecewise quadratic, exists only when the
offset is the mass-conserving choice, and is normalized here to zero mean
(the continuous problem leaves the additive constant free).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig, effective_parameters
from .errors import NoSolutionError, SingularSystemError, UnsupportedError

_RESIDUAL_TOL = 1.0e-8


@dataclass(frozen=True)
class StationaryProfile:
    """Piecewise closed form of the stationary profile.

    For ``alpha > 0`` row ``k`` of ``coeffs`` holds the exponential pair
    ``(p_k, q_k)`` so that on the k-th interval
    ``s(x) = offset + p_k*exp(lam*u) + q_k*exp(-lam*u)`` with
    ``u = x - a_k``.  For the degenerate ``alpha = 0`` branch
    (``alpha_zero`` set) row ``k`` holds ``(slope_k, value_k)`` of
    ``s(x) = quad_lead*u**2 + slope_k*u + value_k`` instead.
    """

    omega: float
    junctions: np.ndarray
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

    def interval_lengths(self) -> np.ndarray:
        return interval_lengths(self.junctions, self.omega)


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
    alpha = config.alpha
    lam = math.sqrt(alpha / sigma)
    junctions = np.asarray(config.junctions, dtype=float)
    k = len(junctions)
    lengths = interval_lengths(junctions, config.omega)

    matrix = np.zeros((2 * k, 2 * k))
    rhs = np.zeros(2 * k)
    for j in range(k):
        m = (j + 1) % k
        grow = math.exp(lam * lengths[j])
        decay = math.exp(-lam * lengths[j])
        # continuity of s at the right end of interval j
        matrix[2 * j, 2 * j] += grow
        matrix[2 * j, 2 * j + 1] += decay
        matrix[2 * j, 2 * m] -= 1.0
        matrix[2 * j, 2 * m + 1] -= 1.0
        # derivative jump -c_m/sigma across that junction
        matrix[2 * j + 1, 2 * m] += lam
        matrix[2 * j + 1, 2 * m + 1] -= lam
        matrix[2 * j + 1, 2 * j] -= lam * grow
        matrix[2 * j + 1, 2 * j + 1] += lam * decay
        rhs[2 * j + 1] = -strengths[m] / sigma

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
        sigma=sigma,
        alpha=alpha,
        forcing_offset=offset_a,
        lam=lam,
        offset=-offset_a / alpha,
        coeffs=solution.reshape(k, 2),
    )


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

    mean = (
        float(np.sum(lead * lengths**3 / 3.0 + slope * lengths**2 / 2.0 + value * lengths))
        / config.omega
    )
    value = value - mean

    return StationaryProfile(
        omega=config.omega,
        junctions=junctions,
        sigma=sigma,
        alpha=0.0,
        forcing_offset=offset_a,
        lam=0.0,
        offset=0.0,
        coeffs=np.column_stack([slope, value]),
        alpha_zero=True,
        quad_lead=lead,
    )


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


def eval_stationary(profile: StationaryProfile, x) -> np.ndarray | float:
    """Evaluate the profile at scalar or array positions."""
    idx, u = _locate(profile, x)
    if profile.alpha_zero:
        slope = profile.coeffs[idx, 0]
        value = profile.coeffs[idx, 1]
        out = profile.quad_lead * u**2 + slope * u + value
    else:
        p = profile.coeffs[idx, 0]
        q = profile.coeffs[idx, 1]
        out = profile.offset + p * np.exp(profile.lam * u) + q * np.exp(-profile.lam * u)
    return out if out.ndim else float(out)


def junction_slope_jump(profile: StationaryProfile, k: int) -> float:
    """Derivative jump ``s'(a_k+0) - s'(a_k-0)`` from the closed forms."""
    left = (k - 1) % profile.num_intervals
    length = profile.interval_lengths()[left]
    if profile.alpha_zero:
        right_slope = profile.coeffs[k, 0]
        left_slope = 2.0 * profile.quad_lead * length + profile.coeffs[left, 0]
        return float(right_slope - left_slope)
    lam = profile.lam
    p_r, q_r = profile.coeffs[k]
    p_l, q_l = profile.coeffs[left]
    right_slope = lam * (p_r - q_r)
    left_slope = lam * (p_l * math.exp(lam * length) - q_l * math.exp(-lam * length))
    return float(right_slope - left_slope)


def ode_residual(profile: StationaryProfile, x) -> np.ndarray | float:
    """``sigma*s'' - alpha*s - A`` evaluated from the closed forms."""
    idx, u = _locate(profile, x)
    if profile.alpha_zero:
        second = np.full_like(u, 2.0 * profile.quad_lead)
        s = eval_stationary(profile, x)
    else:
        lam = profile.lam
        p = profile.coeffs[idx, 0]
        q = profile.coeffs[idx, 1]
        pair = p * np.exp(lam * u) + q * np.exp(-lam * u)
        second = lam * lam * pair
        s = profile.offset + pair
    out = profile.sigma * second - profile.alpha * s - profile.forcing_offset
    return out if np.ndim(out) else float(out)


def interval_extrema(profile: StationaryProfile) -> list[tuple[float, float]]:
    """Exact ``(min, max)`` of the profile on the closure of each interval.

    Uses the endpoints plus the single interior critical point of the
    exponential pair (or quadratic vertex) when it falls inside, so the
    result does not depend on any sampling grid.
    """
    lengths = profile.interval_lengths()
    out = []
    for k in range(profile.num_intervals):
        length = lengths[k]
        if profile.alpha_zero:
            lead = profile.quad_lead
            slope, value = profile.coeffs[k]
            candidates = [value, lead * length**2 + slope * length + value]
            if lead != 0.0:
                u_star = -slope / (2.0 * lead)
                if 0.0 < u_star < length:
                    candidates.append(lead * u_star**2 + slope * u_star + value)
        else:
            lam = profile.lam
            p, q = profile.coeffs[k]
            grow = math.exp(lam * length)
            candidates = [
                profile.offset + p + q,
                profile.offset + p * grow + q / grow,
            ]
            if p * q > 0.0:
                u_star = math.log(q / p) / (2.0 * lam)
                if 0.0 < u_star < length:
                    pair = math.copysign(2.0 * math.sqrt(p * q), p)
                    candidates.append(profile.offset + pair)
        out.append((float(min(candidates)), float(max(candidates))))
    return out


def profile_mean(profile: StationaryProfile) -> float:
    """Exact mean of the profile over one period."""
    lengths = profile.interval_lengths()
    if profile.alpha_zero:
        slope = profile.coeffs[:, 0]
        value = profile.coeffs[:, 1]
        total = np.sum(
            profile.quad_lead * lengths**3 / 3.0 + slope * lengths**2 / 2.0 + value * lengths
        )
        return float(total / profile.omega)
    lam = profile.lam
    p = profile.coeffs[:, 0]
    q = profile.coeffs[:, 1]
    grow = np.exp(lam * lengths)
    total = np.sum(p * (grow - 1.0) / lam + q * (1.0 - 1.0 / grow) / lam)
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
