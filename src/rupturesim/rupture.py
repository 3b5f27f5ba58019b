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
loop: each closed-form jump of a gap skips every step that either of two
certificates proves free of rupture, the mean's decay sets a horizon by
which the gap must end, and the positivity of the step about the discrete
fixed point (without evaporation, about the zero-mean stationary shape)
shows when it never can.  The certificates are the paper's constant
subsolution, which weakens as the thickness nears the threshold, and a
bound on how far the state can move per step, read off the Fourier modes
of its transient, which ends each gap in a few jumps.  Each jump hands the
transient modes of its state to the next, so the jumps of a gap pay one
forward transform between them, and one inverse transform each; the
per-mode factors that would underflow are skipped.  In coupled mode a gap
runs in one call of the mode-space kernel, which tests the thickness after
every step and checks the backward error of the state it hands out.
Either way the gap hands the Fourier modes of the state it reaches to the
crossing search, which decides every step from them with one
:class:`rupturesim.solver.StepProbe` per state, the step that brackets the
crossing first; this module keeps only the bisection over its decisions.
So every decision, time and state is that of stepping with ``advance``
from those modes.  A step returns to real space only where it does not
cross, and at the located crossing, through the probe's checked step.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

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
    CoupledState,
    Field,
    Grid,
    Operators,
    StepProbe,
    advance,
    assemble_operators,
    decoupled_transient,
    jump_coupled,
    jump_decoupled,
    step_toward,
)
from .stationary import interval_index

_BRACKET_FLOOR = 1.0e-3
# roundoff allowed in the closed-form lower bounds, relative to
# _roundoff_scale
_JUMP_TOL = 1.0e-12


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


def rupture_horizon(config: ModelConfig, eta0: Field) -> float | None:
    """Elapsed time by which a decoupled run from ``eta0`` must rupture, or
    ``None`` when the upper bound does not apply.

    The discrete mean decays by ``1/(1 + alpha*dt)`` per step, slightly
    slower than the continuous one, so the continuous upper bound is
    stretched by ``1 + alpha*dt`` and padded by ten steps.
    """
    bounds = rupture_time_bounds(config, eta0)
    if not (bounds.upper_applicable and math.isfinite(bounds.t_upper)):
        return None
    dt = config.numerics.dt
    return bounds.t_upper * (1.0 + config.alpha * dt) + 10.0 * dt


def _subsolution(c0: float, load_min: float, alpha: float, dt: float, steps: int) -> float:
    """``c_steps`` of the constant sequence ``c_{k+1} = (c_k/dt + load_min) /
    (1/dt + alpha)``, in closed form.  Backward Euler is an M-matrix step
    that maps constants to constants, so a state whose minimum is ``c0``
    stays at or above ``c_k`` after ``k`` steps, for any sign of the load."""
    c_inf = load_min / alpha
    return c_inf + (c0 - c_inf) * (1.0 + alpha * dt) ** -steps


def _safe_steps(c0: float, load_min: float, alpha: float, dt: float, threshold: float) -> int:
    """Largest ``m`` with ``c_m >= threshold`` for the subsolution from
    ``c0`` (``sys.maxsize`` when it never falls below ``threshold``)."""
    if c0 < threshold:
        return 0
    c_inf = load_min / alpha
    if c_inf >= threshold:
        return sys.maxsize
    steps = int(math.log((c0 - c_inf) / (threshold - c_inf)) / math.log1p(alpha * dt))
    while steps > 0 and _subsolution(c0, load_min, alpha, dt, steps) < threshold:
        steps -= 1
    return steps


def _change_rate(transient: np.ndarray, dt: float, ops: Operators) -> float:
    """Bound on how far one decoupled step can move any node, from the rfft
    modes ``transient`` of ``x - x*``.

    With ``f_k = 1/(1 + dt*symbol_k)`` the step factor of mode ``k``,
    ``x_j - x_0 = irfft((f^j - 1) * transient)``.  Each term of that inverse
    transform is at most ``w_k |transient_k| (1 - f_k^j)`` at every node,
    with ``w_k`` from :func:`solver._mode_weights`, and ``1 - f^j <= j (1 -
    f)`` for ``0 <= f <= 1``.
    So no node moves by more than ``j`` times the returned rate in ``j``
    steps.
    """
    return float(np.dot(np.abs(transient), ops.decoupled_factors(dt)[2]))


def _spectral_steps(c0: float, rate: float, threshold: float) -> int:
    """Largest ``m`` with ``c0 - m*rate >= threshold``: the steps over which
    a state of minimum ``c0`` that moves at most ``rate`` per step stays at
    or above ``threshold`` (``sys.maxsize`` when it does not move)."""
    if not c0 > threshold:
        return 0
    if not rate > 0.0:
        return sys.maxsize
    return min(math.floor((c0 - threshold) / rate), sys.maxsize)


def _roundoff_scale(state: Field, ops: Operators) -> float:
    """The larger of the state and the a-priori bound ``max|load|/alpha`` on
    the fixed point, which scales the roundoff of the closed forms."""
    values = state.values
    return max(float(values.max()), -float(values.min()), ops.fixed_point_bound)


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

    One step maps ``x`` to ``P x + dt P load``, with ``P = (I/dt + sigma K +
    alpha I)^-1 / dt`` nonnegative and of row sums ``q = 1/(1 + alpha*dt)``.
    About a base ``b`` that a step carries to itself or above, ``v = x - b``
    goes to ``P v``, so after ``k`` steps every node is at least ``min b +
    min(v)*q**k``.  With ``alpha > 0`` the base is the fixed point ``x*``,
    and a state whose constant subsolution never falls below ``threshold``
    settles at once.  With ``alpha = 0`` and ``mean(load) >= 0`` it is the
    zero-mean shape ``s`` with rfft modes ``l_k/symbol_k``, which a step
    lifts by ``dt*mean(load)``, and ``q = 1``, so the bound ``min s + min(x
    - s)`` holds from the start or never.
    """
    values = state.values
    if ops.alpha > 0.0:
        if _safe_steps(float(np.min(values)), ops.load_min, ops.alpha, dt, threshold) == sys.maxsize:
            return 0
        base, scale = ops.fixed_point, _roundoff_scale(state, ops)
    elif float(np.mean(ops.load)) >= 0.0:
        modes = np.zeros_like(ops.load_modes)
        modes[1:] = ops.load_modes[1:] / ops.symbol[1:]
        base = np.fft.irfft(modes, ops.grid.n)
        scale = max(float(np.max(np.abs(values))), float(np.max(np.abs(base))))
    else:
        return None
    margin = float(np.min(base)) - threshold - _JUMP_TOL * scale
    dip = -float(np.min(values - base))
    if ops.alpha == 0.0:
        return 0 if dip <= margin else None
    if not margin > 0.0:
        return None
    return 0 if dip <= margin else math.ceil(math.log(dip / margin) / math.log1p(ops.alpha * dt))


def _jump_to_bound(
    state: Field,
    dt: float,
    ops: Operators,
    threshold: float,
    limit: float | None,
    transient: np.ndarray | None = None,
) -> tuple[Field, np.ndarray] | None:
    """Jump over every step that the constant subsolution
    (:func:`_safe_steps`) or the change rate (:func:`_change_rate`,
    :func:`_spectral_steps`) proves free of rupture, whichever covers more,
    ending at least one full step before ``limit`` (if any); returns the
    jumped state and its transient modes, or ``None`` when no step is free.

    The transient modes of ``state`` serve both the rate and the jump: the
    ``transient`` a previous jump handed out, else one ``rfft``.  The
    crossing bisection's value tolerance is in ``threshold``, so no
    jumped-over step could have located an event.  A jumped state that is
    not finite or falls below the larger of the two lower bounds beyond
    roundoff raises :class:`LinearSolveError`; one that leaves the time
    where it is, :class:`DomainError`.
    """
    values = state.values
    c0 = float(values.min())
    room = _room(limit, state.time, dt)
    if room < 1 or not c0 > threshold:
        return None
    load_min = ops.load_min
    if transient is None:
        transient = decoupled_transient(state, ops)
    rate = _change_rate(transient, dt, ops)
    steps = max(
        _safe_steps(c0, load_min, ops.alpha, dt, threshold),
        _spectral_steps(c0, rate, threshold),
    )
    steps = min(steps, room)
    if steps < 1:
        return None
    jumped, modes = jump_decoupled(state, steps, dt, ops, transient)
    bound = max(_subsolution(c0, load_min, ops.alpha, dt, steps), c0 - steps * rate)
    low, high = float(jumped.values.min()), float(jumped.values.max())
    scale = max(float(values.max()), -c0, ops.fixed_point_bound)  # _roundoff_scale of state
    # a nan shows in both extremes, an infinity in one of them
    if not (low >= bound - _JUMP_TOL * scale and high < math.inf):
        raise LinearSolveError(
            f"jump of {steps} steps gave minimum {low:g} below the discrete lower bound {bound:g}"
        )
    if jumped.time == state.time:
        raise DomainError(f"steps of dt = {dt:g} no longer advance the time {state.time:g}")
    return jumped, modes


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
    re-stepping from ``pre`` with :func:`advance`.  Only the located step
    returns to real space, taken by the probe's checked step; its minimum
    must equal the tested one, or lie at or below the bound that decided
    it.  A caller that holds the rfft modes of ``pre``, or has already made
    the decision about the step of ``dt``, passes its probe as ``probe``;
    with its modes, ``pre`` is not transformed at all.  Returns the elapsed
    time and the state at the located crossing (whose minimum is at or
    below the threshold).
    """
    eta_c = config.eta_c
    value_tol = config.numerics.event_tol * config.eta_a
    if float(np.min(pre.eta.values)) <= eta_c:
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
    handed = float(np.min(state_hi.eta.values))
    if not (handed <= low_hi if bounded else handed == low_hi):
        raise LinearSolveError(
            f"step of minimum thickness {handed:g} does not match the tested {low_hi:g}"
        )
    return hi, state_hi


@functools.lru_cache(maxsize=8)
def _shared_operators(grid: Grid, config: ModelConfig) -> Operators:
    """The operator bundle of one grid and configuration, built once and
    shared by every run on them, such as the return maps of an orbit search;
    its arrays are read-only."""
    return assemble_operators(grid, config)


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
    :class:`ValueError`.  Raises :class:`StagnationError` when two
    events are separated by less than one nominal time step, which signals
    that the step size is too coarse for the configured threshold gap.

    Each gap first skips every step its state kind proves free of rupture:
    in decoupled mode with ``alpha > 0`` by closed-form jumps
    (:func:`_jump_to_bound`), in coupled mode by one call of
    :func:`jump_coupled`, which takes all steps up to the one that
    crosses; either hands out the modes of the state it reaches.  Single
    steps then run to the crossing, each decided first by a
    :class:`StepProbe` from the state's modes and taken by its checked step
    only when it does not cross; the one that crosses hands its probe to
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
    if not (float(np.min(eta0.values)) > config.eta_c and np.isfinite(eta0.values).all()):
        raise DomainError("initial thickness must be finite and exceed the rupture threshold")

    ops = _shared_operators(eta0.grid, config)
    dt = config.numerics.dt
    cap = max_events if max_events is not None else config.numerics.max_ruptures
    value_tol = config.numerics.event_tol * config.eta_a
    threshold, floor = config.eta_c + value_tol, config.eta_c - value_tol
    coupled = config.mode == "coupled"
    end = math.inf if t_end is None else t_end

    def gap_deadline(start: Field | CoupledState) -> tuple[float, bool]:
        """Time by which the gap from ``start`` ends (``inf`` if none), and
        whether a rupture is due by then (else none can follow it)."""
        horizon = rupture_horizon(config, start) if not coupled and config.alpha > 0.0 else None
        if horizon is not None:
            return start.time + horizon, True
        settle = None if coupled or t_end is not None else _settle_steps(start, dt, ops, threshold)
        return start.time + (math.inf if settle is None else settle * dt), False

    def skip(
        state: Field | CoupledState, limit: float
    ) -> tuple[Field | CoupledState, np.ndarray | None]:
        """The state after every step from ``state`` that its kind proves
        free of rupture, a full step or more before ``limit``, and its rfft
        modes where the skip formed them (else ``None``)."""
        if coupled:
            steps = _room(limit, state.time, dt)
            if steps < 1:
                return state, None
            return jump_coupled(state, steps, dt, ops, config.eta_c)[1:]
        transient = None  # each jump hands its modes to the next
        while config.alpha > 0.0:
            jumped = _jump_to_bound(state, dt, ops, threshold, limit, transient)
            if jumped is None:
                break
            state, transient = jumped
        # without evaporation the constant subsolution, which falls by
        # -dt*min(load) per step, certifies single steps
        while (
            config.alpha == 0.0
            and _room(limit, state.time, dt) >= 1
            and float(state.values.min()) + dt * ops.load_min >= threshold
        ):
            state = advance(state, dt, ops)
        return state, None if transient is None else transient + ops.fixed_point_modes

    events: list[RuptureEvent] = []
    state = initial
    while len(events) < cap and state.time < end:
        deadline, due = gap_deadline(state)
        state, modes = skip(state, min(end, deadline))
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
            probe = StepProbe(state, step_dt, ops, config.eta_c, floor, modes)
            if probe.at_dt[0] <= config.eta_c:
                break
            state, modes = probe.step(step_dt), None
        else:  # reached t_end
            break

        _, at_rupture = locate_crossing(state, step_dt, ops, config, probe=probe)
        pre_eta = at_rupture.eta
        intervals = rupture_intervals(pre_eta, config)
        nodes = np.nonzero(pre_eta.values <= threshold)[0]
        post = apply_reset(at_rupture, intervals, config)
        event = RuptureEvent(
            time=pre_eta.time,
            rupture_nodes=nodes,
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
