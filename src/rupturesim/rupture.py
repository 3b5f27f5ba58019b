"""Threshold crossings, reset rules, analytic rupture-time bounds, and the
rupture-punctuated evolution loop.

A rupture happens when the layer thickness first reaches the threshold.
The crossing is bracketed inside one accepted step and localized by
bisecting the step size.  Every junction interval touched by the rupture
set is reset: the thickness jumps to the reset level there, and in coupled
mode the bubble-top height drops by the collapse depth on the same nodes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig, effective_parameters
from .errors import BracketError, DomainError, EmptyRuptureSetError, StagnationError
from .solver import CoupledState, Field, Operators, advance, assemble_operators, step_toward

_BRACKET_FLOOR = 1.0e-3


@dataclass(frozen=True)
class BoundsReport:
    """Closed-form lower/upper bounds on the next rupture time.

    The lower bound comes from the spatially constant subsolution of the
    reduced equation; the upper bound from the exponential decay of the
    mean.  Each carries an applicability flag computed from the data, never
    assumed.  A bound whose logarithm is undefined is reported as ``nan``.
    """

    t_lower: float
    t_upper: float
    lower_applicable: bool
    upper_applicable: bool


@dataclass(frozen=True)
class RuptureEvent:
    """One rupture: when it happened, where, and the states around it.

    ``pre_profile``/``post_profile`` are the thickness just before and just
    after the reset; in coupled mode ``pre_h``/``post_h`` carry the height
    around the collapse drop.
    """

    time: float
    rupture_nodes: np.ndarray
    reset_intervals: tuple[int, ...]
    pre_profile: Field
    post_profile: Field
    pre_h: Field | None = None
    post_h: Field | None = None


def eta_of(state: Field | CoupledState) -> Field:
    return state.eta if isinstance(state, CoupledState) else state


def rupture_time_bounds(config: ModelConfig, eta0: Field) -> BoundsReport:
    """Evaluate both bounds at the given initial data.

    Uses the nodal infimum and the lumped mean, and the effective reduced
    forcing.  Requires positive evaporation.
    """
    if config.alpha <= 0.0:
        raise DomainError("rupture-time bounds require alpha > 0")
    alpha = config.alpha
    _, strengths, offset = effective_parameters(config)
    inf0 = float(np.min(eta0.values))
    mean0 = float(np.mean(eta0.values))

    ratio_low = (offset / alpha + inf0) / (offset / alpha + config.eta_c)
    t_lower = math.log(ratio_low) / alpha if ratio_low > 0.0 else math.nan
    ratio_up = mean0 / config.eta_c
    t_upper = math.log(ratio_up) / alpha if ratio_up > 0.0 else math.nan

    integral_f = math.fsum(strengths) - offset * config.omega
    lower_applicable = (
        all(c >= 0.0 for c in strengths) and offset >= 0.0 and inf0 > config.eta_c
    )
    upper_applicable = integral_f <= 0.0 and mean0 > config.eta_c
    return BoundsReport(
        t_lower=t_lower,
        t_upper=t_upper,
        lower_applicable=lower_applicable,
        upper_applicable=upper_applicable,
    )


def locate_crossing(
    pre: Field | CoupledState, dt: float, ops: Operators, config: ModelConfig
) -> tuple[float, Field | CoupledState]:
    """Localize the threshold crossing bracketed by one step from ``pre``.

    Bisects the trial step size, re-stepping from ``pre`` each time, until
    the minimum thickness is within ``event_tol * eta_a`` of the threshold
    or the bracket is below ``1e-3 * dt``.  Returns the elapsed time and
    the state at the located crossing (whose minimum is at or below the
    threshold).
    """
    eta_c = config.eta_c
    value_tol = config.numerics.event_tol * config.eta_a
    if float(np.min(eta_of(pre).values)) <= eta_c:
        raise BracketError("state is already at or below the threshold")
    state_hi = advance(pre, dt, ops)
    if float(np.min(eta_of(state_hi).values)) > eta_c:
        raise BracketError("no crossing within one step")

    lo, hi = 0.0, dt
    while (
        abs(float(np.min(eta_of(state_hi).values)) - eta_c) > value_tol
        and (hi - lo) >= _BRACKET_FLOOR * dt
    ):
        mid = 0.5 * (lo + hi)
        trial = advance(pre, mid, ops)
        if float(np.min(eta_of(trial).values)) <= eta_c:
            hi, state_hi = mid, trial
        else:
            lo = mid
    return hi, state_hi


def interval_index_of(positions: np.ndarray, config: ModelConfig) -> np.ndarray:
    """0-based junction-interval index containing each position; positions
    before the first junction wrap into the last interval."""
    junctions = np.asarray(config.junctions)
    idx = np.searchsorted(junctions, positions, side="right") - 1
    return np.where(idx < 0, len(junctions) - 1, idx)


def rupture_intervals(at_rupture: Field, config: ModelConfig) -> tuple[int, ...]:
    """Indices of every interval whose half-open span contains a node at or
    below ``eta_c + event_tol * eta_a``."""
    threshold = config.eta_c + config.numerics.event_tol * config.eta_a
    nodes = np.nonzero(at_rupture.values <= threshold)[0]
    if nodes.size == 0:
        raise EmptyRuptureSetError("no node is at or below the rupture threshold")
    indices = interval_index_of(at_rupture.grid.nodes[nodes], config)
    return tuple(sorted(set(int(i) for i in indices)))


def reset_mask(grid, config: ModelConfig, intervals) -> np.ndarray:
    """Node mask of the union of half-open spans ``[a_k, a_{k+1})``."""
    junctions = config.junctions
    k = len(junctions)
    x = grid.nodes
    mask = np.zeros(grid.n, dtype=bool)
    for i in intervals:
        if i == k - 1:
            mask |= (x >= junctions[-1]) | (x < junctions[0])
        else:
            mask |= (x >= junctions[i]) & (x < junctions[i + 1])
    return mask


def apply_reset(
    state: Field | CoupledState, intervals, config: ModelConfig
) -> Field | CoupledState:
    """Apply the reset rule on the listed intervals.

    Thickness becomes ``eta_a`` at every node in each half-open span; in
    coupled mode the height additionally drops by ``d`` there and the
    surface is rebuilt as height plus thickness on those nodes (unchanged
    elsewhere).
    """
    if not intervals:
        raise ValueError("reset needs a non-empty interval list")
    if isinstance(state, CoupledState):
        mask = reset_mask(state.h.grid, config, intervals)
        h_values = state.h.values.copy()
        z_values = state.zeta.values.copy()
        h_values[mask] -= config.d
        z_values[mask] = h_values[mask] + config.eta_a
        return CoupledState(
            Field(state.h.grid, h_values, state.h.time),
            Field(state.zeta.grid, z_values, state.zeta.time),
        )
    mask = reset_mask(state.grid, config, intervals)
    values = state.values.copy()
    values[mask] = config.eta_a
    return Field(state.grid, values, state.time)


def run_with_rupture(
    config: ModelConfig,
    initial: Field | CoupledState,
    *,
    max_events: int | None = None,
    t_end: float | None = None,
) -> tuple[list[RuptureEvent], Field | CoupledState]:
    """Alternate stepping, crossing localization, and resets.

    Stops after ``max_events`` events or at ``t_end``, whichever comes
    first; ``numerics.max_ruptures`` caps the event count when
    ``max_events`` is not given.  Raises :class:`StagnationError` when two
    events are separated by less than one nominal time step, which signals
    that the step size is too coarse for the configured threshold gap.
    """
    if max_events is None and t_end is None:
        raise ValueError("need max_events or t_end")
    if isinstance(initial, CoupledState) != (config.mode == "coupled"):
        raise DomainError("state kind does not match config mode")
    if float(np.min(eta_of(initial).values)) <= config.eta_c:
        raise DomainError("initial thickness must exceed the rupture threshold")

    grid = eta_of(initial).grid
    ops = assemble_operators(grid, config)
    dt = config.numerics.dt
    cap = max_events if max_events is not None else config.numerics.max_ruptures

    events: list[RuptureEvent] = []
    state = initial
    while len(events) < cap:
        time = eta_of(state).time
        if t_end is not None:
            remaining = t_end - time
            if remaining <= 0.0:
                break
            step_dt = step_toward(remaining, dt)
        else:
            step_dt = dt
        trial = advance(state, step_dt, ops)
        if float(np.min(eta_of(trial).values)) > config.eta_c:
            state = trial
            continue

        elapsed, at_rupture = locate_crossing(state, step_dt, ops, config)
        pre_eta = eta_of(at_rupture)
        intervals = rupture_intervals(pre_eta, config)
        threshold = config.eta_c + config.numerics.event_tol * config.eta_a
        nodes = np.nonzero(pre_eta.values <= threshold)[0]
        post = apply_reset(at_rupture, intervals, config)
        coupled = isinstance(post, CoupledState)
        event = RuptureEvent(
            time=pre_eta.time,
            rupture_nodes=nodes,
            reset_intervals=intervals,
            pre_profile=pre_eta.copy(),
            post_profile=eta_of(post).copy(),
            pre_h=at_rupture.h.copy() if coupled else None,
            post_h=post.h.copy() if coupled else None,
        )
        if events and event.time - events[-1].time < dt:
            raise StagnationError(
                "rupture events closer than one time step; reduce dt or widen "
                "the reset-threshold gap"
            )
        events.append(event)
        state = post
    return events, state
