"""Threshold crossings, reset rules, analytic rupture-time bounds, and the
rupture-punctuated evolution loop.

A rupture happens when the layer thickness first reaches the threshold.
The crossing is bracketed inside one accepted step and localized by
bisecting the step size.  Every junction interval touched by the rupture
set is reset: the thickness jumps to the reset level there, and in coupled
mode the bubble-top height drops by the collapse depth on the same nodes.
Which interval holds a node is decided by
:func:`rupturesim.stationary.interval_index` alone.
In decoupled mode the paper's rupture-time bounds run inside the event
loop, with or without evaporation: each closed-form jump of a gap skips
every step that either of two certificates proves to stay a roundoff
margin (:func:`_margin`) above ``eta_c``, the mean's decay sets a horizon
by which the gap must end, and the positivity of the step about the
discrete fixed point (without evaporation, about the zero-mean stationary
shape) shows when it never can.  The certificates are
the paper's constant subsolution, which weakens as the thickness nears the
threshold, and a bound on how far the state can move in ``m`` steps, read
off the Fourier modes of its drive ``load - (alpha I + sigma K) x``.  That
bound saturates as the fast modes settle; its linear majorant, ``m`` times
a per-step rate, gives a first count, which Newton steps on the saturating
bound raise once it is long enough to pay for them, and a gap ends in a
few jumps.  Each state keeps the Fourier modes, minimum and mode sum it
was made with or first formed, so a gap transforms its start forward once
and each jump pays one inverse transform.  In coupled mode a gap runs in
one call of the mode-space kernel, which tests the thickness after every
step and checks the backward error of the state it hands out.
The crossing search's decisions come from one
:class:`rupturesim.solver.StepProbe` per state; this module keeps only the
bisection over them, so every decision, time and state is that of
stepping with ``advance``.
"""
from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

import numpy as np

from .config import ModelConfig, effective_parameters
from .errors import (
    BracketError,
    DomainError,
    EmptyRuptureSetError,
    HorizonError,
    LinearSolveError,
    StagnationError,
)
from .solver import (
    _ROUNDOFF,
    CoupledState,
    Field,
    Grid,
    Operators,
    StepProbe,
    assemble_operators,
    jump_coupled,
    jump_decoupled,
    mode_sum,
    step_toward,
)
from .stationary import interval_index

_BRACKET_FLOOR = 1.0e-3
_JUMP_FACTOR = 16.0  # on solver._ROUNDOFF, for plain stepping's drift too
# the change-rate count from which a jump refines it on the saturating reach
# (_saturated_steps), about 13 us a refinement on ex1: from counts of 4 or
# 8 on, the refinements cost orbit-ex1 more than the jumps they spare, and
# 32 gains nothing over 16
_REFINE_FROM = 16


class BoundsReport(NamedTuple):
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


class RuptureEvent(NamedTuple):
    """One rupture: when it happened, where, and the states around it.

    ``pre_profile``/``post_profile`` are the thickness just before and just
    after the reset; in coupled mode ``pre_h``/``post_h`` carry the height
    around the collapse drop.
    """

    time: float
    reset_intervals: tuple[int, ...]
    pre_profile: Field
    post_profile: Field
    pre_h: Field | None = None
    post_h: Field | None = None


@functools.lru_cache(maxsize=8)
def _forcing_integral(config: ModelConfig) -> float:
    """``sum(strengths) - offset*omega`` of the effective reduced forcing,
    built once per config."""
    _, strengths, offset = effective_parameters(config)
    return math.fsum(strengths) - offset * config.omega


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

    shifted_c = offset / alpha + config.eta_c
    ratio_low = (offset / alpha + inf0) / shifted_c if shifted_c != 0.0 else math.nan
    t_lower = math.log(ratio_low) / alpha if ratio_low > 0.0 else math.nan
    ratio_up = mean0 / config.eta_c
    t_upper = math.log(ratio_up) / alpha if ratio_up > 0.0 else math.nan

    lower_applicable = (
        all(c >= 0.0 for c in strengths) and offset >= 0.0 and inf0 > config.eta_c
    )
    upper_applicable = _forcing_integral(config) <= 0.0 and mean0 > config.eta_c
    return BoundsReport(
        t_lower=t_lower,
        t_upper=t_upper,
        lower_applicable=lower_applicable,
        upper_applicable=upper_applicable,
    )


def rupture_horizon(config: ModelConfig, eta0: Field) -> float | None:
    """Elapsed time by which a decoupled run from ``eta0`` must rupture, or
    ``None`` when the upper bound does not apply.

    The discrete mean decays by ``1/(1 + alpha*dt)`` per step, slightly
    slower than the continuous one, so the continuous upper bound of
    :func:`rupture_time_bounds` is stretched by ``1 + alpha*dt`` and padded
    by ten steps.  The forcing's integral is cached per config, so a gap
    pays only for the mean of ``eta0``.
    """
    if config.alpha <= 0.0:
        raise DomainError("rupture-time bounds require alpha > 0")
    mean0 = float(np.mean(eta0.values))
    if not (_forcing_integral(config) <= 0.0 and mean0 > config.eta_c):
        return None
    t_upper = math.log(mean0 / config.eta_c) / config.alpha
    if not math.isfinite(t_upper):
        return None
    dt = config.numerics.dt
    return t_upper * (1.0 + config.alpha * dt) + 10.0 * dt


def _subsolution(c0: float, load_min: float, alpha: float, dt: float, steps: int) -> float:
    """``c_steps`` of the constant sequence ``c_{k+1} = (c_k/dt + load_min) /
    (1/dt + alpha)``, in closed form, ``c0 + steps*dt*load_min`` without
    evaporation.  Backward Euler is an M-matrix step that maps constants to
    constants, so a state whose minimum is ``c0`` stays at or above ``c_k``
    after ``k`` steps, for any sign of the load.  The decay is
    ``exp(-steps*log1p(alpha*dt))``, at the rate of :func:`_safe_steps`'
    estimate; a power of the rounded ``1 + alpha*dt`` is off it by up to
    ``eps/(alpha*dt)`` relatively."""
    if alpha == 0.0:
        return c0 + steps * (dt * load_min)
    c_inf = load_min / alpha
    return c_inf + (c0 - c_inf) * math.exp(-steps * math.log1p(alpha * dt))


def _safe_steps(c0: float, load_min: float, alpha: float, dt: float, threshold: float) -> int:
    """Largest ``m`` with ``c_m >= threshold`` for the subsolution from
    ``c0`` (``sys.maxsize`` when it never falls below ``threshold``), to
    the resolution of ``m`` as a float, in which the closed form takes it:
    an estimate walks down by one unit in that last place, at least 1."""
    if c0 < threshold:
        return 0
    if alpha == 0.0:  # c_k falls by -dt*load_min per step
        if load_min >= 0.0:
            return sys.maxsize
        steps = _spectral_steps(c0, -(dt * load_min), threshold)
    else:
        c_inf = load_min / alpha
        if c_inf >= threshold:
            return sys.maxsize
        steps = int(math.log((c0 - c_inf) / (threshold - c_inf)) / math.log1p(alpha * dt))
    while steps > 0 and _subsolution(c0, load_min, alpha, dt, steps) < threshold:
        steps -= max(1, int(math.ulp(steps)))
    return steps


def _change_rate(magnitude: np.ndarray, dt: float, ops: Operators) -> float:
    """Bound ``dt*sum_k w_k |v_k|/(1 + dt*symbol_k)`` on how far one
    decoupled step can move any node, from the ``magnitude`` ``|v_k|`` of
    the rfft modes ``v`` of the drive ``load - (alpha I + sigma K) x``, with
    ``w_k`` from :func:`solver._mode_weights`.

    With ``F_k = 1/(1 + dt*symbol_k)`` the step factor of mode ``k``, ``j``
    steps move mode ``k`` of ``x`` by ``v_k (1 - F_k^j)/symbol_k``, and
    ``j*dt*v_k`` where ``symbol_k = 0``.  Each term of the inverse transform
    is at most ``w_k`` times its mode's move at every node, so no node moves
    by more than the reach ``R(j) = sum_k w_k |v_k| (1 - F_k^j)/symbol_k``
    in ``j`` steps (:func:`_saturated_steps`).  Since ``1 - F^j <= j (1 -
    F)`` for ``0 <= F <= 1``, where ``(1 - F_k)/symbol_k = dt F_k``, the
    returned rate is the slope of ``R``'s linear majorant: ``R(j) <= j *
    rate``.
    """
    return float(np.dot(magnitude, ops.decoupled_factors(dt)[2]))


def _saturated_steps(
    gap: float,
    magnitude: np.ndarray,
    rate: float,
    steps: int,
    room: int,
    dt: float,
    ops: Operators,
) -> tuple[int, float]:
    """The change-rate count ``steps`` raised by up to two Newton steps on
    the reach ``R`` of :func:`_change_rate`, at most to ``room``: the last
    count ``m`` at which ``R(m)``, evaluated, is at most ``gap``, and
    ``R(m)``; ``steps`` and its linear reach ``steps*rate`` when none is.

    ``R`` is increasing and concave in ``m``, so from a count with ``R(m)
    <= gap`` its tangent's root stays at or below the largest such count in
    exact arithmetic; the root is rounded down, and an iterate is kept only
    once ``R`` evaluated there is within ``gap``.  The powers ``F_k^m`` are
    formed only over the cut prefix of ``steps``
    (:meth:`Operators.kept_modes`), which holds that of every larger count;
    every mode past it is charged its full reach ``w_k |v_k|/symbol_k``
    (:attr:`Operators.reach_weights`), which exceeds its move by a factor
    ``F_k^m`` below about ``2**-64``, and a mode of symbol 0 moves by
    ``m*dt*w_k |v_k|``.
    """
    still, weights = ops.still_count, ops.reach_weights
    _, logs, rates = ops.decoupled_factors(dt)
    held = float(np.dot(magnitude[:still], rates[:still])) if still else 0.0
    # counts only grow, so the first count's prefix holds every later one
    top = ops.kept_modes(dt, steps)
    live = magnitude[still:top] * weights[still:top]
    logs = logs[still:top]  # -log F_k
    slopes = live * logs
    settled = float(np.dot(magnitude[top:], weights[top:]))
    best, count = (steps, steps * rate), steps
    for newton in (True, True, False):  # R at the count and after each Newton step
        powers = np.expm1(-count * logs)  # F_k^m - 1, free of cancellation
        reach = count * held + settled - float(np.dot(live, powers))
        if not reach <= gap:
            break
        best = count, reach
        if not newton or count >= room:
            break
        slope = held + float(np.dot(slopes, powers + 1.0))
        increment = (gap - reach) / slope if slope > 0.0 else math.inf
        if not increment >= 1.0:
            break
        count = room if increment >= room - count else count + math.floor(increment)
    return best


def _spectral_steps(c0: float, rate: float, threshold: float) -> int:
    """Largest ``m`` with ``c0 - m*rate >= threshold``: the steps over which
    a state of minimum ``c0`` that moves at most ``rate`` per step stays at
    or above ``threshold`` (``sys.maxsize`` when it does not move)."""
    if not c0 > threshold:
        return 0
    if not rate > 0.0:
        return sys.maxsize
    quotient = (c0 - threshold) / rate
    return sys.maxsize if quotient >= sys.maxsize else math.floor(quotient)


def _room(limit: float | None, time: float, dt: float) -> int:
    """Steps of ``dt`` that one jump or batch from ``time`` may take and
    still end a full step before ``limit``, allowing for roundoff in the
    time: ``int((limit - time)/dt) - 2``, capped at ``sys.maxsize``, which
    is also the room without a limit."""
    quotient = math.inf if limit is None else (limit - time) / dt
    return sys.maxsize if quotient >= sys.maxsize else int(quotient) - 2


def _settle_steps(state: Field, dt: float, ops: Operators, threshold: float) -> int | None:
    """Step count after which a decoupled run from ``state`` stays above
    ``threshold`` for good, or ``None`` when this bound does not show it.

    A state whose constant subsolution never falls below ``threshold``
    settles at once.  Else, one step maps ``x`` to ``P x + dt P load``, with
    ``P = (I/dt + sigma K + alpha I)^-1 / dt`` nonnegative and of row sums
    ``q = 1/(1 + alpha*dt)``.  About a base ``b`` that a step carries to
    itself or above, ``v = x - b`` goes to ``P v``, so after ``k`` steps
    every node is at least ``min b + min(v)*q**k``.  With ``alpha > 0`` the
    base is the fixed point ``x*``.  With ``alpha = 0`` and ``mean(load) >=
    0`` it is the zero-mean shape ``s`` with rfft modes ``l_k/symbol_k``,
    which a step lifts by ``dt*mean(load)``, and ``q = 1``, so after ``k``
    steps every node is at least ``min s + min(x - s) + k*dt*mean(load)``;
    the count takes the load's mode sum's roundoff off ``mean(load)``, so
    a mean within it of 0 lifts nothing, and the bound holds from the start
    or never.
    """
    safe = _safe_steps(state.low, ops.load_min, ops.alpha, dt, threshold)
    # at alpha = 0 the count also saturates for a subsolution that falls slowly
    if safe == sys.maxsize and (ops.alpha > 0.0 or ops.load_min >= 0.0):
        return 0
    mean = float(np.mean(ops.load))
    if ops.alpha > 0.0:
        base = ops.fixed_point
    elif mean >= 0.0:
        modes = np.zeros_like(ops.load_modes)
        modes[1:] = ops.load_modes[1:] / ops.symbol[1:]
        base = np.fft.irfft(modes, ops.grid.n)
    else:
        return None
    margin = float(np.min(base)) - threshold
    dip = -float(np.min(state.values - base))
    if ops.alpha == 0.0:
        if dip <= margin:
            return 0
        lift = dt * (mean - _ROUNDOFF * mode_sum(ops.grid.n, ops.load_modes))
        quotient = (dip - margin) / lift if lift > 0.0 else math.inf
        return math.ceil(quotient) if quotient < sys.maxsize else None
    if not margin > 0.0:
        return None
    return 0 if dip <= margin else math.ceil(math.log(dip / margin) / math.log1p(ops.alpha * dt))


def _margin(size: float, ops: Operators) -> float:
    """The roundoff margin above ``eta_c`` of a decoupled jump from states of
    mode sum ``size`` (``solver._ROUNDOFF``, with the fixed point's share)."""
    return _JUMP_FACTOR * _ROUNDOFF * (size + ops.shares(False)[0])


def _jump_to_bound(
    state: Field, dt: float, ops: Operators, eta_c: float, limit: float | None
) -> Field | tuple[np.ndarray, np.ndarray] | None:
    """Jump over every step that the constant subsolution
    (:func:`_safe_steps`) or the change rate (:func:`_change_rate`,
    :func:`_spectral_steps`) proves free of rupture, whichever covers more,
    ending at least one full step before ``limit`` (if any); returns the
    jumped state, whose ``low`` is the minimum its check reduces.  When no
    step is free, it returns the drive formed from ``state.modes`` and its
    magnitude, for :class:`StepProbe`, or ``None`` where it formed none.
    A change-rate count of ``_REFINE_FROM`` or more is raised on the
    saturating reach ``R`` (:func:`_saturated_steps`), whose linear
    majorant the rate is.

    The one drive serves the rate, the reach and the jump.  A step is
    free when its minimum is proved to stay above ``eta_c`` plus the
    :func:`_margin` of ``state``.  A jumped state that is not finite or
    falls below the larger of the two lower bounds by more than the margin
    of both states raises :class:`LinearSolveError`: the subsolution, or
    ``c0`` less ``R`` at the refined count, else less the linear reach.  One
    that leaves the time where it is raises :class:`DomainError`.
    """
    c0 = state.low
    room = _room(limit, state.time, dt)
    if room < 1 or not c0 > eta_c:
        return None
    load_min = ops.load_min
    threshold = eta_c + _margin(state.size, ops)
    drive = ops.load_modes - ops.symbol * state.modes
    magnitude = np.abs(drive)
    rate = _change_rate(magnitude, dt, ops)
    safe = _safe_steps(c0, load_min, ops.alpha, dt, threshold)
    spectral = _spectral_steps(c0, rate, threshold)
    reach = spectral * rate
    if _REFINE_FROM <= spectral and max(safe, spectral) < room:
        spectral, reach = _saturated_steps(c0 - threshold, magnitude, rate, spectral, room, dt, ops)
    steps = min(max(safe, spectral), room)
    if steps < 1:
        return drive, magnitude
    jumped = jump_decoupled(state, steps, dt, ops, drive)
    moved = reach if steps == spectral else steps * rate
    bound = max(_subsolution(c0, load_min, ops.alpha, dt, steps), c0 - moved)
    low, high = float(jumped.values.min()), float(jumped.values.max())
    allowance = _margin(state.size + jumped.size, ops)
    # a nan shows in both extremes, an infinity in one of them
    if not (low >= bound - allowance and -math.inf < low and high < math.inf):
        raise LinearSolveError(
            f"jump of {steps} steps gave minimum {low:g} below the discrete lower bound {bound:g}"
        )
    if jumped.time == state.time:
        raise DomainError(f"steps of dt = {dt:g} no longer advance the time {state.time:g}")
    jumped.low = low
    return jumped


def locate_crossing(
    pre: Field | CoupledState,
    dt: float,
    ops: Operators,
    config: ModelConfig,
    *,
    probe: StepProbe | None = None,
) -> tuple[float, Field | CoupledState]:
    """Localize the threshold crossing bracketed by one step from ``pre``.

    Bisects the trial step size until the minimum thickness is within
    ``event_tol * eta_a`` of the threshold or the bracket is below
    ``1e-3 * dt``.  Every decision, the step of ``dt`` included, comes from
    one :class:`StepProbe`: most from its bounds, the rest from steps in
    rfft modes, so each decision and the located time are those of
    re-stepping from ``pre`` with :func:`rupturesim.solver.advance`.  Only
    the located step returns to real space, taken by the probe's checked
    step; its minimum must equal the tested one, or lie at or below the
    bound that decided it.  A caller that has already made the decision
    about the step of ``dt`` passes its probe as ``probe``.  Returns the
    elapsed time and the state at the located crossing (whose minimum is at
    or below the threshold).
    """
    eta_c = config.eta_c
    value_tol = config.numerics.event_tol * config.eta_a
    if pre.low <= eta_c:
        raise BracketError("state is already at or below the threshold")
    if probe is None:
        probe = StepProbe(pre, dt, ops, eta_c, eta_c - value_tol)
    low_hi, bounded = probe.at_dt
    if low_hi > eta_c:
        raise BracketError("no crossing within one step")

    lo, hi = 0.0, dt
    while abs(low_hi - eta_c) > value_tol and (hi - lo) >= _BRACKET_FLOOR * dt:
        mid = 0.5 * (lo + hi)
        low, decided = probe.decide(mid)
        if low <= eta_c:
            hi, low_hi, bounded = mid, low, decided
        else:
            lo = mid
    state_hi = probe.step(hi)
    if not (state_hi.low <= low_hi if bounded else state_hi.low == low_hi):
        raise LinearSolveError(
            f"step of minimum thickness {state_hi.low:g} does not match the tested {low_hi:g}"
        )
    return hi, state_hi


@functools.lru_cache(maxsize=8)
def node_intervals(grid: Grid, junctions: tuple[float, ...]) -> np.ndarray:
    """Index of the half-open junction interval holding each node of
    ``grid``, from :func:`interval_index`, built once per grid and set of
    junctions; read-only."""
    table = interval_index(junctions, grid.nodes)
    table.flags.writeable = False
    return table


def rupture_intervals(at_rupture: Field, config: ModelConfig) -> tuple[int, ...]:
    """Indices of every interval whose half-open span contains a node at or
    below ``eta_c + event_tol * eta_a``."""
    threshold = config.eta_c + config.numerics.event_tol * config.eta_a
    nodes = np.nonzero(at_rupture.values <= threshold)[0]
    if nodes.size == 0:
        raise EmptyRuptureSetError("no node is at or below the rupture threshold")
    indices = node_intervals(at_rupture.grid, config.junctions)[nodes]
    return tuple(sorted(set(int(i) for i in indices)))


def reset_mask(grid, config: ModelConfig, intervals) -> np.ndarray:
    """Node mask of the union of half-open spans ``[a_k, a_{k+1})``."""
    chosen = np.zeros(len(config.junctions), dtype=bool)
    chosen[list(intervals)] = True
    return chosen[node_intervals(grid, config.junctions)]


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
    mask = reset_mask(state.eta.grid, config, intervals)
    if isinstance(state, CoupledState):
        h_values = state.h.values.copy()
        z_values = state.zeta.values.copy()
        h_values[mask] -= config.d
        z_values[mask] = h_values[mask] + config.eta_a
        return CoupledState(
            Field(state.h.grid, h_values, state.h.time),
            Field(state.zeta.grid, z_values, state.zeta.time),
        )
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
    ``max_events`` is not given.  A non-finite ``t_end`` raises
    :class:`ValueError`, and one that steps of ``dt`` cannot reach, because
    they no longer advance the time before it, :class:`DomainError`.
    Raises :class:`StagnationError` when two events are separated by less
    than one nominal time step, which signals that the step size is too
    coarse for the configured threshold gap.

    Each gap first skips every step its state kind proves free of rupture:
    in decoupled mode by closed-form jumps
    (:func:`_jump_to_bound`), in coupled mode by one call of
    :func:`jump_coupled`, which takes all steps up to the one that
    crosses.  Single steps then run to the crossing, each decided first by
    a :class:`StepProbe` and taken by its checked step only when it does
    not cross; the one that crosses hands its probe to
    :func:`locate_crossing`.  So event times are those of plain stepping.
    A decoupled gap with ``alpha > 0`` must rupture within
    :func:`rupture_horizon`, else :class:`HorizonError`.
    Where that bound does not apply and no ``t_end`` is given, a decoupled
    gap that passes the step count after which it stays above the
    threshold for good (:func:`_settle_steps`) can never rupture, and is
    refused with :class:`DomainError`.
    """
    if isinstance(initial, CoupledState) != (config.mode == "coupled"):
        raise DomainError("state kind does not match config mode")
    if t_end is not None and not math.isfinite(t_end):
        raise ValueError("t_end must be finite")
    eta0 = initial.eta
    if not (initial.low > config.eta_c and np.isfinite(eta0.values).all()):
        raise DomainError("initial thickness must be finite and exceed the rupture threshold")
    dt = config.numerics.dt
    # a step of dt advances every time below t_end only if it advances the
    # largest one, whose half ulp it must exceed
    if t_end is not None and initial.time < t_end:
        last = math.nextafter(t_end, -math.inf)
        if not dt > 0.5 * math.ulp(last):
            raise DomainError(
                f"steps of dt = {dt:g} no longer advance the time before t_end = {t_end:g}"
            )

    ops = assemble_operators(eta0.grid, config)
    cap = max_events if max_events is not None else config.numerics.max_ruptures
    floor = config.eta_c - config.numerics.event_tol * config.eta_a
    coupled = config.mode == "coupled"
    end = math.inf if t_end is None else t_end

    def gap_deadline(start: Field | CoupledState) -> tuple[float, bool]:
        """Time by which the gap from ``start`` ends (``inf`` if none), and
        whether a rupture is due by then."""
        horizon = rupture_horizon(config, start) if not coupled and config.alpha > 0.0 else None
        if horizon is not None:
            return start.time + horizon, True
        settle = None
        if not coupled and t_end is None:
            threshold = config.eta_c + _margin(start.size, ops)
            settle = _settle_steps(start, dt, ops, threshold)
        return start.time + (math.inf if settle is None else settle * dt), False

    def skip(state: Field | CoupledState, limit: float) -> tuple:
        """The state after every step from ``state`` that its kind proves
        free of rupture, a full step or more before ``limit``, and the
        refused jump decision's drive, if it formed one."""
        if coupled:
            steps = _room(limit, state.time, dt)
            if steps >= 1:
                state = jump_coupled(state, steps, dt, ops, config.eta_c)[1]
            return state, None
        while isinstance(jumped := _jump_to_bound(state, dt, ops, config.eta_c, limit), Field):
            state = jumped
        return state, jumped

    events: list[RuptureEvent] = []
    state = initial
    while len(events) < cap and state.time < end:
        deadline, due = gap_deadline(state)
        state, drive = skip(state, min(end, deadline))
        while (time := state.time) < end:
            if time > deadline:
                if due:
                    raise HorizonError(
                        f"no rupture by t = {time:g}, past the closed-form horizon {deadline:g}"
                    )
                raise DomainError(
                    f"no rupture can occur after t = {deadline:g}: the thickness stays "
                    "above the threshold for good; give an end time (--t-end)"
                )
            step_dt = step_toward(end - time, dt)
            probe = StepProbe(state, step_dt, ops, config.eta_c, floor, drive=drive)
            if probe.at_dt[0] <= config.eta_c:
                break
            state, drive = probe.step(step_dt), None
        else:  # reached t_end
            break

        _, at_rupture = locate_crossing(state, step_dt, ops, config, probe=probe)
        pre_eta = at_rupture.eta
        intervals = rupture_intervals(pre_eta, config)
        post = apply_reset(at_rupture, intervals, config)
        event = RuptureEvent(
            time=pre_eta.time,
            reset_intervals=intervals,
            pre_profile=pre_eta.copy(),
            post_profile=post.eta.copy(),
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
