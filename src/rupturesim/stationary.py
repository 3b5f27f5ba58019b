"""Closed-form stationary profile of the reduced layer-thickness equation.

Off the junctions the stationary profile solves ``sigma*s'' - alpha*s =
A``; at each junction the derivative drops by ``c_k/sigma``.  With ``B =
sum(c)/omega`` the profile is ``s = (B - A)/alpha + r``, where ``r`` solves
the same problem under the mass-conserving offset ``B`` and has mean 0.
Without evaporation the constant is 0, a profile exists only when ``A =
B``, and the zero mean fixes the additive constant left free.

On an interval of length ``L``, with ``lam = sqrt(alpha/sigma)`` and ``v``
the distance from its centre, ``r = p*C + q*S + (B/sigma)*Q`` with ``C =
cosh(lam*v)/cosh(lam*L/2)``, ``S = sinh(lam*v)/(lam*cosh(lam*L/2))`` and
``Q = (C - 1)/lam**2``.  With ``a = u*phi(lam*u)`` and ``b`` likewise for
the distances ``u`` and ``L - u`` to the two ends, ``phi(z) = (1 -
exp(-z))/z = exp(-z/2)*sinh(z/2)/(z/2)`` the first phi-function of
exponential integrators (Hochbruck & Ostermann, Acta Numerica 19, 2010),
and ``scale = 1 + exp(-lam*L)``: ``C*scale = exp(-lam*u) + exp(-lam*(L -
u))``, ``S*scale = a - b`` and ``Q*scale = -a*b``.  None exceeds its size
at ``lam = 0``, cancels as ``lam*L -> 0`` or overflows however stiff the
evaporation.  One solve of continuity, the slope jumps and ``mean(r) = 0``
serves every ``alpha >= 0``, and one per-interval evaluator gives the
value, slope and curvature to every query.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .config import ModelConfig, effective_parameters
from .errors import DomainError, NoSolutionError, SingularSystemError, UnsupportedError

_RESIDUAL_TOL = 1.0e-8
# 2n/(2n + 1)!, n = 10..1: the series of (x*cosh x - sinh x)/x**3 in x**2,
# highest power first; its last term is below 1e-18 of the sum for x <= 1
_BULGE_SERIES = tuple(2.0 * n / math.factorial(2 * n + 1) for n in range(10, 0, -1))


class StationaryProfile(NamedTuple):
    """Piecewise closed form of the stationary profile.

    ``lengths[k]`` is the length ``L_k`` of the k-th interval, and row
    ``k`` of ``coeffs`` holds ``(p_k, q_k)`` so that on it ``s = offset +
    p_k*C + q_k*S + (balanced_offset/sigma)*Q`` in the basis of the module
    docstring, ``offset = (balanced_offset - forcing_offset)/alpha`` (0
    without evaporation).
    """

    omega: float
    junctions: np.ndarray
    lengths: np.ndarray
    sigma: float
    alpha: float
    forcing_offset: float
    balanced_offset: float
    lam: float
    offset: float
    coeffs: np.ndarray

    @property
    def num_intervals(self) -> int:
        return len(self.junctions)


class SReport(NamedTuple):
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
    """Solve the continuity/jump system for the stationary profile, for
    any ``alpha >= 0``.

    Without evaporation a profile exists only when the forcing offset is
    the mass-conserving choice; otherwise raises :class:`NoSolutionError`.
    Raises :class:`DomainError` if the mean ``(B - A)/alpha``, the
    evaporation rate ``sqrt(alpha/sigma)`` or the drive ``B/sigma`` is not
    finite, and :class:`SingularSystemError` if the assembled system cannot
    be solved to the expected residual.  The profile's arrays are
    read-only.
    """
    sigma, strengths, offset_a = effective_parameters(config)
    balanced = math.fsum(strengths) / config.omega
    if config.alpha > 0.0:
        offset = (balanced - offset_a) / config.alpha
        if not math.isfinite(offset):
            raise DomainError(
                f"the stationary profile's mean (B - A)/alpha = {offset:g} is not finite"
            )
    elif abs(offset_a - balanced) <= 1.0e-12 * max(abs(offset_a), abs(balanced)):
        offset = 0.0
    else:
        raise NoSolutionError(
            "no stationary profile: forcing offset is not the mass-conserving choice"
        )
    lam = math.sqrt(config.alpha) / math.sqrt(sigma)  # alpha/sigma may overflow
    drive = balanced / sigma
    for name, value in (("evaporation rate sqrt(alpha/sigma)", lam), ("drive B/sigma", drive)):
        if not math.isfinite(value):
            raise DomainError(f"the stationary profile's {name} = {value:g} is not finite")
    junctions = np.asarray(config.junctions, dtype=float)
    lengths = interval_lengths(junctions, config.omega)
    matrix, rhs = _jump_system(lam, lengths, strengths, sigma, balanced)
    try:
        solution = np.linalg.solve(matrix, rhs)[:-1]
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    residual = np.max(np.abs(matrix[:, :-1] @ solution - rhs))
    if not np.isfinite(residual) or residual > _RESIDUAL_TOL * (1.0 + np.max(np.abs(rhs))):
        raise SingularSystemError(f"stationary solve residual {residual:g}")
    coeffs = solution.reshape(-1, 2)
    for array in (junctions, lengths, coeffs):
        array.flags.writeable = False

    return StationaryProfile(
        omega=config.omega,
        junctions=junctions,
        lengths=lengths,
        sigma=sigma,
        alpha=config.alpha,
        forcing_offset=offset_a,
        balanced_offset=balanced,
        lam=lam,
        offset=offset,
        coeffs=coeffs,
    )


def _jump_system(lam, lengths, strengths, sigma, balanced) -> tuple[np.ndarray, np.ndarray]:
    """Bordered square system for ``(p_0, q_0, p_1, ..., mu)``: row ``2j``
    is continuity at the right end of interval ``j``, row ``2j + 1`` the
    slope jump ``-c_m/sigma`` there, ``m = j + 1`` mod the interval count,
    and the last row ``mean(r) = 0``.  With ``T = tanh(lam*L/2)/lam`` the
    value of ``S`` at the right end, no entry exceeds ``max(1, lam, L/2)``.
    The slope rows sum to ``-lam**2*sum(L)`` times the mean row; the last
    column is that left null vector at unit length, so the solution is the
    least-squares one, with ``mu`` 0 up to roundoff, and as well
    conditioned."""
    k = len(lengths)
    half, bulge = _interval_terms(lam, lengths)
    shear = lam * (lam * half)
    drive = balanced / sigma
    matrix = np.zeros((2 * k + 1, 2 * k + 1))
    rhs = np.zeros(2 * k + 1)
    for j in range(k):
        m = (j + 1) % k
        matrix[2 * j, 2 * j : 2 * j + 2] += (1.0, half[j])
        matrix[2 * j, 2 * m : 2 * m + 2] -= (1.0, -half[m])
        matrix[2 * j + 1, 2 * m : 2 * m + 2] += (-shear[m], 1.0)
        matrix[2 * j + 1, 2 * j : 2 * j + 2] -= (shear[j], 1.0)
        rhs[2 * j + 1] = drive * (half[m] + half[j]) - strengths[m] / sigma
    total = float(np.sum(lengths))
    matrix[2 * k, 0 : 2 * k : 2] = 2.0 * half / total
    rhs[2 * k] = -drive * np.sum(bulge) / total
    # unit length without forming lam**2*total, which may overflow
    turn = math.atan2(lam * lam * total, math.sqrt(k))
    matrix[1 : 2 * k : 2, 2 * k] = math.cos(turn) / math.sqrt(k)
    matrix[2 * k, 2 * k] = math.sin(turn)
    return matrix, rhs


def _damped(lam, u):
    """``(1 - exp(-lam*u))/lam``, the integral of ``exp(-lam*t)`` over
    ``[0, u]``, without cancellation, and ``u`` itself at ``lam = 0``."""
    return np.expm1(-lam * u) / -lam if lam > 0.0 else u


def _interval_terms(lam: float, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per interval, ``T = tanh(x)/lam = (L/2)*(1 - x**2*g)``, the value of
    ``S`` at the right end and half the integral of ``C``, and the integral
    of ``Q``, ``-L*(L/2)**2*g``, with ``x = lam*L/2`` and ``g = (x - tanh
    x)/x**3``, which cancels below ``x = 1`` and is summed there instead."""
    terms = []
    for length in lengths.tolist():
        x = lam * length / 2.0
        if x >= 1.0:
            ratio = math.tanh(x) / x
            spread = (1.0 - ratio) / lam / lam  # (L/2)**2*g
        else:
            series = 0.0
            for coefficient in _BULGE_SERIES:
                series = series * x * x + coefficient
            series /= math.cosh(x)
            ratio, spread = 1.0 - x * x * series, (length / 2.0) * (length / 2.0) * series
        terms.append((length / 2.0 * ratio, -length * spread))
    return np.array(terms).T


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
    local coordinate ``u``, in the scaled basis of the module docstring;
    broadcasts over both."""
    lam, length = profile.lam, profile.lengths[idx]
    p, q = profile.coeffs[idx].T
    rest = length - u
    a, b = _damped(lam, u), _damped(lam, rest)
    even, odd = np.exp(-lam * u) + np.exp(-lam * rest), a - b  # C and S times scale
    scale = 1.0 + np.exp(-lam * length)  # 2*cosh(lam*L/2)*exp(-lam*L/2)
    drive = profile.balanced_offset / profile.sigma
    pair = p * even + q * odd
    value = profile.offset + (pair - drive * a * b) / scale
    # the slope and curvature of a profile far steeper than its values may
    # pass the float range; they are then infinite
    with np.errstate(over="ignore"):
        slope = (lam * (lam * (p * odd)) + drive * odd + q * even) / scale
        return value, slope, (lam * (lam * pair) + drive * even) / scale


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
    slope ``(lam**2 p + B/sigma)*S + q*C`` vanishes, when it falls inside:
    ``v* = atanh(lam*t)/lam`` from the centre with ``t = -q/(lam**2 p +
    B/sigma)``, formed as ``t*atanh(y)/y`` with ``y = lam*t`` so that it
    tends to the parabola's vertex ``t`` as ``lam -> 0``.  The result does
    not depend on any sampling grid.
    """
    lengths, lam = profile.lengths, profile.lam
    p, q = profile.coeffs.T
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = -q / (lam * (lam * p) + profile.balanced_offset / profile.sigma)
        y = lam * ratio
        turn = lengths / 2.0 + ratio * np.where(y == 0.0, 1.0, np.arctanh(y) / y)
    # a turning point outside the open interval is replaced by its left end
    turn = np.where((0.0 < turn) & (turn < lengths), turn, 0.0)
    u = np.stack((np.zeros_like(lengths), lengths, turn))
    values, _, _ = _pieces(profile, np.arange(profile.num_intervals), u)
    return [(float(lo), float(hi)) for lo, hi in zip(values.min(axis=0), values.max(axis=0))]


def profile_mean(profile: StationaryProfile) -> float:
    """Exact mean of the profile over one period."""
    half, bulge = _interval_terms(profile.lam, profile.lengths)
    drive = profile.balanced_offset / profile.sigma
    total = np.sum(2.0 * half * profile.coeffs[:, 0] + drive * bulge)
    return float(profile.offset + total / profile.omega)


def check_condition_S(profile: StationaryProfile, config: ModelConfig) -> SReport:
    """Decide whether the threshold localizes ruptures to one interval.

    Refuses ``alpha = 0`` profiles: their additive constant is a
    normalization choice here, and the decision would depend on it.
    """
    if profile.alpha == 0.0:
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
