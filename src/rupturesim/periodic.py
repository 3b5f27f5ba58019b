"""Rupture-to-rupture return map, fixed-point search, periodicity check,
and a numerical probe of the gradient smoothing estimate.

The return map takes a profile on the complement of the distinguished
interval, overwrites the inside with the reset level, evolves to the next
rupture, and returns the pre-rupture profile.  Its fixed points are
time-periodic solutions; they are found here by plain Picard iteration.
The map is deliberately not assumed to be order preserving.  The
distinguished interval is the open span between two junctions; which
interval holds a node comes from
:func:`rupturesim.stationary.interval_index`.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .config import ModelConfig, effective_parameters
from .errors import DomainError, ModelViolationError, UnsupportedError
from .rupture import node_intervals, run_with_rupture
from .solver import (
    CoupledState,
    Field,
    assemble_operators,
    build_grid,
    constant_field,
    evolve,
)
from . import stationary


class ConvergenceReport(NamedTuple):
    """Picard-iteration history of the return map.

    ``iterates`` holds ``(m, t_r, sup_diff)`` per application, where
    ``sup_diff`` is the sup-norm change outside the distinguished interval.
    ``period`` is the rupture time of the final iterate and
    ``distinguished_interval`` the index of the interval the map resets.
    """

    iterates: tuple[tuple[int, float, float], ...]
    converged: bool
    period: float
    fixed_profile: Field
    distinguished_interval: int


class GradientProbeReport(NamedTuple):
    """Fitted smoothing-estimate constants and the probed data.

    ``samples`` holds ``(t, sup |grad|, fitted bound at t)``; ``c0`` and
    ``c1`` are the smallest constants (minimal ``c0 + c1``) making
    ``c0/sqrt(t) * ||eta0||_inf + c1 * sum|c_k| >= sup|grad|`` hold at
    every probe time.
    """

    samples: tuple[tuple[float, float, float], ...]
    c0: float
    c1: float


def distinguished_interval(profile: stationary.StationaryProfile, config: ModelConfig) -> int:
    """Index of the interval where ruptures are expected to localize: the
    single interval dipping to the threshold when the localization check
    passes, otherwise the interval containing the global minimum."""
    report = stationary.check_condition_S(profile, config)
    if report.rupture_interval_index is not None:
        return report.rupture_interval_index
    mins = [lo for _, lo in report.min_per_interval]
    return int(np.argmin(mins))


@functools.lru_cache(maxsize=8)
def _stationary_basis(config: ModelConfig) -> tuple[stationary.StationaryProfile, int]:
    """The stationary profile of ``config`` and its
    :func:`distinguished_interval`, solved once per configuration and
    shared by every caller; the profile's arrays are read-only.  An
    interval that holds every node raises :class:`DomainError`."""
    profile = stationary.solve_stationary(config)
    index = distinguished_interval(profile, config)
    if _open_interval(build_grid(config), config, index).all():
        raise DomainError(f"the distinguished interval {index} holds every node of the grid")
    return profile, index


@functools.lru_cache(maxsize=8)
def _open_interval(grid, config: ModelConfig, index: int) -> np.ndarray:
    """Node mask of the open interval ``(a_i, a_{i+1})`` (periodic wrap):
    the half-open span without its left end, the only junction it holds;
    built once per grid, configuration and interval, read-only."""
    inside = node_intervals(grid, config.junctions) == index
    mask = inside & (grid.nodes != config.junctions[index])
    mask.flags.writeable = False
    return mask


def splice(xi: Field, config: ModelConfig, index: int) -> Field:
    """Overwrite the open distinguished interval with the reset level."""
    values = xi.values.copy()
    values[_open_interval(xi.grid, config, index)] = config.eta_a
    return Field(xi.grid, values, xi.time)


def in_invariant_set(
    xi: Field,
    profile: stationary.StationaryProfile,
    config: ModelConfig,
    index: int,
    bound: float | None = None,
) -> bool:
    """Nodal membership check ``s <= xi <= s + B`` outside the distinguished
    interval; the default ``B`` clears the reset level above the whole
    profile with unit margin."""
    if bound is None:
        bound = default_invariant_band(profile, config)
    outside = ~_open_interval(xi.grid, config, index)
    s_nodes = stationary.eval_stationary(profile, xi.grid.nodes[outside])
    v = xi.values[outside]
    return bool(np.all(v >= s_nodes) and np.all(v <= s_nodes + bound))


def default_invariant_band(profile: stationary.StationaryProfile, config: ModelConfig) -> float:
    """Smallest simple band height with ``inf(s + B) > eta_a`` by margin 1."""
    global_min = min(lo for lo, _ in stationary.interval_extrema(profile))
    return config.eta_a - global_min + 1.0


def sup_diff_outside(a: Field, b: Field, config: ModelConfig, index: int) -> float:
    outside = ~_open_interval(a.grid, config, index)
    return float(np.max(np.abs(a.values[outside] - b.values[outside])))


def poincare_map(
    xi: Field,
    config: ModelConfig,
    profile: stationary.StationaryProfile,
    *,
    index: int | None = None,
) -> tuple[Field, float]:
    """One application of the return map.

    Splices the reset level into the distinguished interval, evolves to the
    located rupture, and returns the pre-rupture profile together with the
    elapsed rupture time.  Assumes the sign condition on the forcing (so a
    rupture is guaranteed); a rupture that does not come by the
    closed-form horizon of :func:`run_with_rupture` raises its
    :class:`HorizonError`.  Raises :class:`ModelViolationError` when the
    rupture touches any other interval, which indicates the localization
    assumption does not hold for this configuration.  A caller that
    iterates the map passes the :func:`distinguished_interval` of
    ``profile`` as ``index``, which is then not decided again.
    """
    if index is None:
        index = distinguished_interval(profile, config)
    start = splice(xi, config, index)
    start.time = 0.0

    events, _ = run_with_rupture(config, start, max_events=1)
    event = events[0]
    if event.reset_intervals != (index,):
        raise ModelViolationError(
            f"rupture touched intervals {event.reset_intervals}, expected ({index},)"
        )
    return event.pre_profile, event.time


def find_periodic(
    config: ModelConfig,
    xi0: Field | None = None,
    fp_tol: float | None = None,
    max_iter: int = 50,
) -> ConvergenceReport:
    """Picard-iterate the return map and report the convergence history.

    Non-convergence within ``max_iter`` is an outcome, not an error.  In
    coupled mode the reduced-equation map does not exist; the iteration is
    replaced by a continuous run of the coupled system, comparing
    consecutive pre-rupture thickness profiles, and the report simply
    records whether those stabilized.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if fp_tol is None:
        fp_tol = config.numerics.fp_tol
    profile, index = _stationary_basis(config)
    if xi0 is None:
        xi0 = constant_field(build_grid(config), config.eta_a)

    coupled = config.mode == "coupled"
    if coupled:
        state = CoupledState.from_thickness(splice(xi0, config, index))
    iterates: list[tuple[int, float, float]] = []
    xi = xi0
    for m in range(1, max_iter + 1):
        if coupled:
            start = state.time
            events, state = run_with_rupture(config, state, max_events=1)
            mapped, t_r = events[0].pre_profile, events[0].time - start
        else:
            mapped, t_r = poincare_map(xi, config, profile, index=index)
        sup_diff = sup_diff_outside(mapped, xi, config, index)
        iterates.append((m, t_r, sup_diff))
        xi = mapped
        if sup_diff <= fp_tol:
            break

    return ConvergenceReport(
        iterates=tuple(iterates),
        converged=sup_diff <= fp_tol,
        period=iterates[-1][1],
        fixed_profile=xi,
        distinguished_interval=index,
    )


def verify_periodic(config: ModelConfig, fixed_profile: Field, tol: float) -> bool:
    """Certify the orbit through two further ruptures.

    Splices the fixed profile, runs two events, and accepts when the two
    inter-event gaps agree within two time steps and the two pre-rupture
    profiles agree within ``tol`` in sup norm.  Decoupled mode only: the
    fixed profile carries no bubble-top height to start a coupled run from.
    """
    if config.mode != "decoupled":
        raise UnsupportedError("orbit verification is defined for decoupled mode only")
    _, index = _stationary_basis(config)
    start = splice(fixed_profile, config, index)
    start.time = 0.0
    events, _ = run_with_rupture(config, start, max_events=2)
    first, second = events
    gap_one = first.time
    gap_two = second.time - first.time
    gaps_match = abs(gap_two - gap_one) <= 2.0 * config.numerics.dt
    profile_diff = float(np.max(np.abs(first.pre_profile.values - second.pre_profile.values)))
    return gaps_match and profile_diff <= tol


def discrete_gradient(field: Field, config: ModelConfig) -> np.ndarray:
    """Nodal derivative: centered differences, switching to one-sided at the
    two nodes bracketing each junction, where the true derivative jumps."""
    v = field.values
    dx = field.grid.dx
    grad = (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * dx)
    n = field.grid.n
    for a in config.junctions:
        left = int(math.floor((a % config.omega) / dx)) % n
        right = (left + 1) % n
        grad[left] = (v[left] - v[left - 1]) / dx
        grad[right] = (v[(right + 1) % n] - v[right]) / dx
    return grad


def _fit_bound_constants(
    times: np.ndarray, grads: np.ndarray, eta0_sup: float, strength_sum: float
) -> tuple[float, float]:
    """Smallest ``(c0, c1)`` (by ``c0 + c1``) with
    ``c0*eta0_sup/sqrt(t) + c1*strength_sum >= grad`` at every sample.

    For fixed ``c0`` the best ``c1`` is ``max(0, max_i (g_i - c0*u_i)/v)``,
    so the objective is convex and piecewise linear in ``c0`` and its
    minimum lies at ``c0 = 0``, at a root ``g_i/u_i`` of one constraint, or
    where two constraints cross.  With ``v = 0`` a constraint counts as met
    up to roundoff in the gradients.
    """
    u = eta0_sup / np.sqrt(times)
    v = strength_sum
    if np.all(grads <= 0.0):
        return 0.0, 0.0
    du = u[:, None] - u[None, :]
    pairs = du != 0.0
    crossings = (grads[:, None] - grads[None, :])[pairs] / du[pairs]
    candidates = np.concatenate(([0.0], grads[u > 0.0] / u[u > 0.0], crossings))
    candidates = candidates[candidates >= 0.0]
    need = np.max(grads[None, :] - candidates[:, None] * u[None, :], axis=1)
    if v > 0.0:
        c1 = np.maximum(need, 0.0) / v
    else:
        c1 = np.where(need <= 1.0e-12 * max(1.0, float(np.max(grads))), 0.0, math.inf)
    best = int(np.argmin(candidates + c1))
    if not math.isfinite(c1[best]):
        raise UnsupportedError("bound fit infeasible: no gradient budget available")
    return float(candidates[best]), float(c1[best])


def gradient_probe(
    config: ModelConfig, eta0: Field, times: list[float]
) -> GradientProbeReport:
    """Probe the gradient of the evolved thickness against the smoothing
    estimate ``c0/sqrt(t)*||eta0||_inf + c1*sum|c_k|``.

    The constants are fitted per run (the estimate asserts their existence,
    not their values); stability of the fit under grid refinement is the
    meaningful check.  Decoupled mode only.
    """
    if config.mode != "decoupled":
        raise UnsupportedError("gradient probe is defined for decoupled mode only")
    if any(t <= 0.0 for t in times):
        raise ValueError("probe times must be positive")
    _, strengths, _ = effective_parameters(config)
    ops = assemble_operators(eta0.grid, config)
    dt = config.numerics.dt

    order = np.argsort(times)
    sorted_times = [times[i] for i in order]
    grads = np.empty(len(times))
    state = eta0
    for slot, t in zip(order, sorted_times):
        state = evolve(state, t, dt, ops)
        grads[slot] = float(np.max(np.abs(discrete_gradient(state, config))))

    eta0_sup = float(np.max(np.abs(eta0.values)))
    strength_sum = float(np.sum(np.abs(strengths)))
    c0, c1 = _fit_bound_constants(np.asarray(times, dtype=float), grads, eta0_sup, strength_sum)
    samples = tuple(
        (float(t), float(g), c0 * eta0_sup / math.sqrt(t) + c1 * strength_sum)
        for t, g in zip(times, grads)
    )
    return GradientProbeReport(samples=samples, c0=c0, c1=c1)
