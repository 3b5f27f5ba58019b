import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rupturesim.config import ModelConfig, Numerics, effective_parameters
from rupturesim.cli import preset_config
from rupturesim.errors import (
    BracketError,
    DomainError,
    EmptyRuptureSetError,
    HorizonError,
    LinearSolveError,
    StagnationError,
)
from rupturesim import rupture, solver
from rupturesim.rupture import (
    apply_reset,
    locate_crossing,
    run_with_rupture,
    rupture_intervals,
    rupture_time_bounds,
)
from rupturesim.solver import (
    CoupledState,
    Field,
    advance,
    assemble_operators,
    build_grid,
    constant_field,
    step_toward,
)


def decay_config(**over):
    kwargs = dict(
        omega=1.0,
        junctions=(0.5,),
        jump_strengths=(0.0,),
        forcing_offset=0.0,
        sigma1=1.0,
        sigma2=1.0,
        tau=1.0,
        alpha=1.0,
        eta_c=0.01,
        eta_a=0.03,
        d=0.1,
    )
    kwargs.update(over)
    return ModelConfig(**kwargs)


def test_bounds_vanish_at_the_threshold():
    cfg = decay_config(forcing_offset=1.0, jump_strengths=(0.5,))
    grid = build_grid(cfg, 32)
    at_threshold = constant_field(grid, cfg.eta_c)
    report = rupture_time_bounds(cfg, at_threshold)
    assert report.t_lower == pytest.approx(0.0, abs=1e-15)
    assert report.t_upper == pytest.approx(0.0, abs=1e-15)
    assert not report.lower_applicable  # infimum must strictly exceed the threshold
    assert not report.upper_applicable


def test_bounds_closed_forms():
    cfg = decay_config(forcing_offset=1.0, jump_strengths=(1.0,), eta_c=0.01)
    grid = build_grid(cfg, 64)
    eta0 = constant_field(grid, 0.03)
    report = rupture_time_bounds(cfg, eta0)
    assert report.t_lower == pytest.approx(math.log(1.03 / 1.01), rel=1e-12)
    assert report.t_upper == pytest.approx(math.log(3.0), rel=1e-12)
    assert report.lower_applicable and report.upper_applicable


def test_bounds_require_evaporation():
    cfg = decay_config(alpha=0.0)
    grid = build_grid(cfg, 32)
    with pytest.raises(DomainError):
        rupture_time_bounds(cfg, constant_field(grid, 1.0))


def test_lower_bound_is_nan_where_the_shifted_threshold_vanishes():
    # offset/alpha + eta_c == 0 divided by zero and raised ZeroDivisionError
    cfg = decay_config(forcing_offset=-0.01, eta_c=0.01)
    grid = build_grid(cfg, 32)
    report = rupture_time_bounds(cfg, constant_field(grid, 0.03))
    assert math.isnan(report.t_lower)
    assert report.t_upper == pytest.approx(math.log(3.0), rel=1e-12)
    assert not report.lower_applicable


def test_bounds_applicability_flags():
    cfg = decay_config(forcing_offset=-1.0)
    grid = build_grid(cfg, 32)
    report = rupture_time_bounds(cfg, constant_field(grid, 0.02))
    assert not report.lower_applicable  # negative offset
    assert not report.upper_applicable  # positive forcing integral


def test_crossing_at_exactly_one_step():
    # alpha*dt chosen so one implicit step lands exactly on the threshold
    cfg = decay_config(eta_c=0.02, eta_a=0.04)
    grid = build_grid(cfg, 32)
    ops = assemble_operators(grid, cfg)
    dt = 0.5  # (1 + dt)^-1 * 0.03 = 0.02
    pre = constant_field(grid, 0.03)
    elapsed, state = locate_crossing(pre, dt, ops, cfg)
    assert elapsed == dt
    assert float(np.min(state.values)) == pytest.approx(cfg.eta_c, abs=1e-15)


def test_crossing_matches_scalar_decay_time():
    cfg = decay_config(eta_c=0.01, eta_a=0.02)
    grid = build_grid(cfg, 16)
    ops = assemble_operators(grid, cfg)
    dt = 1e-3
    state = constant_field(grid, 2.0 * cfg.eta_c)
    while True:
        trial = solver.advance(state, dt, ops)
        if float(np.min(trial.values)) <= cfg.eta_c:
            break
        state = trial
    elapsed, _ = locate_crossing(state, dt, ops, cfg)
    assert abs(state.time + elapsed - math.log(2.0)) <= 2.0 * dt


def test_tighter_event_tolerance_lands_closer():
    dt = 1e-3
    gaps = []
    for tol in (1e-3, 1e-4):
        cfg = decay_config(eta_c=0.01, eta_a=0.02, numerics=Numerics(event_tol=tol, dt=dt))
        grid = build_grid(cfg, 16)
        ops = assemble_operators(grid, cfg)
        state = constant_field(grid, 2.0 * cfg.eta_c)
        while True:
            trial = solver.advance(state, dt, ops)
            if float(np.min(trial.values)) <= cfg.eta_c:
                break
            state = trial
        _, located = locate_crossing(state, dt, ops, cfg)
        gaps.append(abs(float(np.min(located.values)) - cfg.eta_c))
    assert gaps[1] < gaps[0]


def test_crossing_reuses_the_step_it_is_given(fft_calls):
    # the rfft modes of the state before the crossing, when assigned, spare
    # the crossing its one forward transform
    cfg = decay_config(eta_c=0.01, eta_a=0.02)
    grid = build_grid(cfg, 16)
    ops = assemble_operators(grid, cfg)
    dt = 1e-3
    pre = constant_field(grid, 0.010005)  # one step falls below eta_c
    locate_crossing(pre.copy(), dt, ops, cfg)  # fills the operators' lazily built modes
    fft_calls.clear()
    elapsed, located = locate_crossing(pre.copy(), dt, ops, cfg)
    transformed = fft_calls.count("rfft")
    given = pre.copy()
    given.modes = np.fft.rfft(pre.values)
    floor = cfg.eta_c - cfg.numerics.event_tol * cfg.eta_a
    fft_calls.clear()
    probe = solver.StepProbe(given, dt, ops, cfg.eta_c, floor)
    reused = locate_crossing(given, dt, ops, cfg, probe=probe)
    assert fft_calls.count("rfft") == transformed - 1 == 0
    assert reused[0] == elapsed
    assert np.array_equal(reused[1].values, located.values)


def run_events(config, n, count):
    grid = build_grid(config, n)
    start = constant_field(grid, config.eta_a)
    if config.mode == "coupled":
        start = CoupledState.from_thickness(start)
    events, _ = run_with_rupture(config, start, max_events=count)
    return events


@pytest.mark.parametrize("preset, count", [("ex1", 4), ("ex3", 3)])
def test_trials_taken_by_advance_locate_the_same_events(monkeypatch, preset, count):
    # with bounds that decide nothing and trials taken by advance from the
    # state's modes, every decision is that of plain stepping; the bounds
    # and the mode-space trials must change nothing
    config = preset_config(preset)
    steps = counted_advances(monkeypatch)
    in_modes = run_events(config, 256, count)
    fast = len(steps)

    def minimum_after(self, tau):
        return float(np.min(solver.advance(self.pre, tau, self.ops).eta.values))

    monkeypatch.setattr(solver.StepProbe, "minimum_after", minimum_after)
    monkeypatch.setattr(solver.StepProbe, "bound", lambda self, tau: None)
    by_advance = run_events(config, 256, count)
    assert len(steps) - fast > 2 * fast  # every trial went through advance
    assert len(in_modes) == len(by_advance) == count
    for a, b in zip(in_modes, by_advance):
        assert a.time == b.time and a.reset_intervals == b.reset_intervals
        assert np.array_equal(a.pre_profile.values, b.pre_profile.values)
        assert np.array_equal(a.post_profile.values, b.post_profile.values)
        if a.pre_h is not None:
            assert np.array_equal(a.pre_h.values, b.pre_h.values)


@pytest.mark.parametrize("preset, count", [("ex1", 11), ("ex3", 5)])
def test_a_crossing_takes_one_real_step(monkeypatch, preset, count):
    # the bisection's decisions, the step that brackets the crossing
    # included, come from bounds and trials in modes; advance takes only the
    # state handed out, and no trial falls back to advance
    config = preset_config(preset)
    steps = counted_advances(monkeypatch)
    real = rupture.locate_crossing
    located = []

    def locate_crossing(pre, dt, ops, config, *, probe):
        before = len(steps)
        elapsed, state = real(pre, dt, ops, config, probe=probe)
        given = len(steps) - before
        before = len(steps)
        retried = solver.StepProbe(pre, dt, ops, probe.eta_c, probe.floor)
        again = real(pre, dt, ops, config, probe=retried)
        assert given == 1
        assert len(steps) - before == given
        assert again[0] == elapsed and np.array_equal(again[1].eta.values, state.eta.values)
        located.append(elapsed)
        return elapsed, state

    monkeypatch.setattr(rupture, "locate_crossing", locate_crossing)
    events = run_events(config, 1024, count)
    assert len(events) == len(located) == count


@pytest.mark.parametrize("preset", ["ex1", "ex3"])
def test_an_event_with_carried_modes_takes_no_forward_transform(monkeypatch, fft_calls, preset):
    # the state the skip reaches keeps the modes it was made with, which the
    # decision about the step that brackets the crossing, the bisection and
    # the located step read, so none of them transforms that state forward
    config = preset_config(preset)
    run_events(config, 256, 1)  # fills the shared operators' lazily built modes
    real_probe, real_locate = rupture.StepProbe, rupture.locate_crossing
    carried, forward = [], []

    def probe(pre, *args, **kwargs):
        before, kept = len(fft_calls), "modes" in vars(pre)
        made = real_probe(pre, *args, **kwargs)
        made.forward, made.carried = fft_calls[before:].count("rfft"), kept
        return made

    def locate_crossing(pre, dt, ops, config, *, probe):
        before = len(fft_calls)
        located = real_locate(pre, dt, ops, config, probe=probe)
        carried.append(probe.carried)
        forward.append(probe.forward + fft_calls[before:].count("rfft"))
        return located

    monkeypatch.setattr(rupture, "StepProbe", probe)
    monkeypatch.setattr(rupture, "locate_crossing", locate_crossing)
    events = run_events(config, 256, 3)
    assert len(events) == 3 and carried == [True] * 3
    assert forward == [0] * 3


def test_a_handed_out_state_above_the_threshold_is_refused(monkeypatch):
    cfg = decay_config(eta_c=0.01, eta_a=0.02)
    grid = build_grid(cfg, 16)
    ops = assemble_operators(grid, cfg)
    pre = constant_field(grid, 0.0105)
    real = solver.advance

    def raised(*args, **kwargs):
        stepped = real(*args, **kwargs)
        return Field(stepped.grid, stepped.values + 1e-3, stepped.time)

    monkeypatch.setattr(solver, "advance", raised)  # the probe's checked step
    with pytest.raises(LinearSolveError):
        locate_crossing(pre, 1e-1, ops, cfg)


def test_crossing_requires_a_bracket():
    cfg = decay_config()
    grid = build_grid(cfg, 16)
    ops = assemble_operators(grid, cfg)
    with pytest.raises(BracketError):
        locate_crossing(constant_field(grid, 1.0), 1e-6, ops, cfg)
    with pytest.raises(BracketError):
        locate_crossing(constant_field(grid, cfg.eta_c / 2.0), 1e-3, ops, cfg)


def test_rupture_intervals_single_node(ex1):
    grid = build_grid(ex1, 128)
    values = np.full(grid.n, 1.0)
    values[np.argmin(np.abs(grid.nodes - 0.3))] = 0.0  # inside (0.1, 0.6)
    assert rupture_intervals(Field(grid, values, 0.0), ex1) == (0,)


def test_rupture_intervals_two_disjoint(ex1):
    grid = build_grid(ex1, 128)
    values = np.full(grid.n, 1.0)
    values[np.argmin(np.abs(grid.nodes - 0.3))] = 0.0
    values[np.argmin(np.abs(grid.nodes - 0.7))] = 0.0  # inside (0.6, 0.9)
    assert rupture_intervals(Field(grid, values, 0.0), ex1) == (0, 1)


def test_rupture_intervals_wrap_around(ex1):
    grid = build_grid(ex1, 128)
    values = np.full(grid.n, 1.0)
    values[np.argmin(np.abs(grid.nodes - 0.95))] = 0.0
    values[2] = 0.0  # before the first junction, wraps into the last interval
    assert rupture_intervals(Field(grid, values, 0.0), ex1) == (2,)


def test_rupture_intervals_rejects_empty_set(ex1):
    grid = build_grid(ex1, 64)
    with pytest.raises(EmptyRuptureSetError):
        rupture_intervals(constant_field(grid, 1.0), ex1)


def test_reset_is_half_open(ex1):
    # a node exactly on the right junction keeps its value
    grid = build_grid(ex1, 10)  # nodes at multiples of 0.1: 0.1 and 0.6 are nodes
    values = np.zeros(grid.n)
    out = apply_reset(Field(grid, values, 0.0), (0,), ex1)
    inside = (grid.nodes >= 0.1) & (grid.nodes < 0.6)
    assert np.all(out.values[inside] == ex1.eta_a)
    assert out.values[6] == 0.0  # node at 0.6 untouched
    assert out.values[1] == ex1.eta_a  # node at 0.1 reset


def test_coupled_reset_rebuilds_the_surface(ex3):
    grid = build_grid(ex3, 256)
    rng = np.random.default_rng(9)
    h = Field(grid, rng.standard_normal(grid.n), 0.0)
    zeta = Field(grid, h.values + 0.05, 0.0)
    out = apply_reset(CoupledState(h, zeta), (1,), ex3)
    mask = rupture.reset_mask(grid, ex3, (1,))
    eta = out.zeta.values - out.h.values
    assert np.allclose(eta[mask], ex3.eta_a, rtol=0.0, atol=1e-15)
    assert np.array_equal(out.zeta.values[~mask], zeta.values[~mask])
    assert np.allclose(out.h.values[mask], h.values[mask] - ex3.d)


def test_coupled_reset_mass_drop(ex3):
    grid = build_grid(ex3, 512)
    h = constant_field(grid, 1.0)
    zeta = Field(grid, h.values + 0.05, 0.0)
    out = apply_reset(CoupledState(h, zeta), (0, 2), ex3)
    mask = rupture.reset_mask(grid, ex3, (0, 2))
    drop = np.sum(h.values - out.h.values) * grid.dx
    assert drop == pytest.approx(ex3.d * int(mask.sum()) * grid.dx, abs=1e-12)


def test_run_stops_before_first_crossing(ex1):
    grid = build_grid(ex1, 128)
    eta0 = constant_field(grid, ex1.eta_a)
    events, final = run_with_rupture(ex1, eta0, t_end=1e-3)
    assert events == []
    assert final.time == pytest.approx(1e-3)


def test_run_without_limits_stops_at_max_ruptures(ex1):
    grid = build_grid(ex1, 128)
    events, _ = run_with_rupture(ex1, constant_field(grid, ex1.eta_a))
    assert len(events) == ex1.numerics.max_ruptures


def test_run_rejects_initial_data_at_threshold(ex1):
    grid = build_grid(ex1, 64)
    with pytest.raises(DomainError):
        run_with_rupture(ex1, constant_field(grid, ex1.eta_c), max_events=1)


def test_run_localizes_events_to_the_long_interval(ex1):
    grid = build_grid(ex1)
    eta0 = constant_field(grid, ex1.eta_a)
    events, _ = run_with_rupture(ex1, eta0, max_events=11)
    assert len(events) == 11
    assert all(e.reset_intervals == (0,) for e in events)
    times = [e.time for e in events]
    assert all(b > a for a, b in zip(times, times[1:]))
    for e in events:
        assert float(np.min(e.pre_profile.values)) <= ex1.eta_c + 1e-6 * ex1.eta_a
        assert float(np.min(e.post_profile.values)) > ex1.eta_c


def test_inter_event_gaps_respect_the_analytic_bounds(ex1):
    grid = build_grid(ex1)
    eta0 = constant_field(grid, ex1.eta_a)
    events, _ = run_with_rupture(ex1, eta0, max_events=8)
    dt = ex1.numerics.dt
    start = eta0
    prev_time = 0.0
    for event in events:
        report = rupture_time_bounds(ex1, start)
        gap = event.time - prev_time
        assert gap >= report.t_lower - 2.0 * dt
        assert gap <= report.t_upper + 2.0 * dt
        start, prev_time = event.post_profile, event.time
    # post-reset profiles keep dominating the nodes that dominated before
    assert all(float(np.min(e.post_profile.values)) >= ex1.eta_c for e in events)


def test_post_reset_profiles_dominate_the_stationary_one():
    # with the reset level above the profile everywhere on the reset interval,
    # domination of the stationary profile survives every reset
    from rupturesim.cli import preset_config

    cfg = preset_config("ex1", overrides=(("eta_a", 0.05),))
    from rupturesim import stationary

    profile = stationary.solve_stationary(cfg)
    grid = build_grid(cfg)
    s_nodes = stationary.eval_stationary(profile, grid.nodes)
    eta0 = Field(grid, np.maximum(s_nodes, cfg.eta_c) + 0.01, 0.0)
    events, _ = run_with_rupture(cfg, eta0, max_events=6)
    for event in events:
        assert np.all(event.pre_profile.values >= s_nodes - 1e-10)
        assert np.all(event.post_profile.values >= s_nodes - 1e-10)
        assert event.reset_intervals == (0,)


def test_run_is_deterministic(ex1):
    grid = build_grid(ex1, 512)
    eta0 = constant_field(grid, ex1.eta_a)
    a, _ = run_with_rupture(ex1, eta0, max_events=3)
    b, _ = run_with_rupture(ex1, constant_field(grid, ex1.eta_a), max_events=3)
    assert [e.time for e in a] == [e.time for e in b]
    for ea, eb in zip(a, b):
        assert np.array_equal(ea.pre_profile.values, eb.pre_profile.values)


def test_run_flags_stagnation():
    # reset level barely above the threshold with a coarse step: the next
    # crossing happens within one step of the reset
    cfg = decay_config(
        forcing_offset=1.0, eta_c=0.01, eta_a=0.010001, numerics=Numerics(dt=0.01)
    )
    grid = build_grid(cfg, 32)
    eta0 = constant_field(grid, 0.05)
    with pytest.raises(StagnationError):
        run_with_rupture(cfg, eta0, max_events=3)


def test_state_kind_must_match_mode(ex1, ex3):
    grid = build_grid(ex1, 64)
    h = constant_field(grid, 0.0)
    zeta = constant_field(grid, 1.0)
    with pytest.raises(DomainError):
        run_with_rupture(ex1, CoupledState(h, zeta), max_events=1)
    with pytest.raises(DomainError):
        run_with_rupture(ex3, constant_field(grid, 1.0), max_events=1)


def patch_advance(monkeypatch, advance):
    """Put ``advance`` in place of every single step: the solver's, which a
    probe's checked step takes, and one the event loop would take itself,
    which it does not import today (hence ``raising=False``)."""
    monkeypatch.setattr(rupture, "advance", advance, raising=False)
    monkeypatch.setattr(solver, "advance", advance)


def counted_advances(monkeypatch):
    """Count the single steps ``run_with_rupture`` takes, whether it calls
    ``advance`` itself or through the solver, as a probe's step does."""
    calls = []
    real = solver.advance

    def advance(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    patch_advance(monkeypatch, advance)
    return calls


def plain_stepping(monkeypatch):
    """Turn jumping off at its one seam, ``_jump_to_bound``, so that every
    certificate is off; returns the list of jumps made after that, which a
    plain-stepping baseline must leave empty."""
    monkeypatch.setattr(rupture, "_jump_to_bound", lambda *args: None)
    jumps = []
    real = rupture.jump_decoupled

    def jump_decoupled(*args):
        jumps.append(1)
        return real(*args)

    monkeypatch.setattr(rupture, "jump_decoupled", jump_decoupled)
    return jumps


@pytest.mark.parametrize(
    "preset, n, count, atol",
    [("ex1", 1024, 11, 1e-12), ("ex2", 1024, 5, 1e-12), ("ex1", 8192, 3, 1e-10)],
)
def test_jumped_run_equals_plain_stepping(monkeypatch, preset, n, count, atol):
    cfg = preset_config(preset)
    grid = build_grid(cfg, n)
    steps = counted_advances(monkeypatch)
    jumped, _ = run_with_rupture(cfg, constant_field(grid, cfg.eta_a), max_events=count)
    jumped_steps = len(steps)
    jumps = plain_stepping(monkeypatch)
    stepped, _ = run_with_rupture(cfg, constant_field(grid, cfg.eta_a), max_events=count)
    assert jumps == []
    assert jumped_steps < (len(steps) - jumped_steps) / 2
    assert len(jumped) == len(stepped) == count
    assert [e.time for e in jumped] == [e.time for e in stepped]
    assert [e.reset_intervals for e in jumped] == [e.reset_intervals for e in stepped]
    for a, b in zip(jumped, stepped):
        assert np.max(np.abs(a.pre_profile.values - b.pre_profile.values)) <= atol
        assert np.max(np.abs(a.post_profile.values - b.post_profile.values)) <= atol


def test_jump_stops_a_full_step_before_t_end(monkeypatch):
    # with no forcing offset nothing ruptures, so the bound allows jumping
    # far past t_end; the run must still land on t_end as stepping does
    cfg = preset_config("ex1", overrides=(("forcing_offset", 0.0),))
    grid = build_grid(cfg, 256)
    t_end = 0.0123
    steps = counted_advances(monkeypatch)
    events, jumped = run_with_rupture(cfg, constant_field(grid, cfg.eta_a), t_end=t_end)
    assert events == [] and jumped.time == t_end
    assert 1 <= len(steps) <= 3
    jumps = plain_stepping(monkeypatch)
    _, stepped = run_with_rupture(cfg, constant_field(grid, cfg.eta_a), t_end=t_end)
    assert jumps == []
    assert np.max(np.abs(jumped.values - stepped.values)) <= 1e-12


def test_room_is_capped_and_ends_a_full_step_before_the_limit():
    assert rupture._room(None, 3.0, 1e-4) == sys.maxsize
    # quotients at or above sys.maxsize, up to one that overflows to inf
    tiny = 2.2250738585072014e-308
    for limit, time, dt in [
        (2.0**63, 0.0, 1.0),
        (2.0**70, 1.0, 1.0),
        (math.inf, 5.0, 1e-4),
        (13.7, 0.0, tiny),
    ]:
        assert rupture._room(limit, time, dt) == sys.maxsize
    # the largest quotient below the cap is counted as stepping counts it
    below = math.nextafter(2.0**63, 0.0)
    assert rupture._room(below, 0.0, 1.0) == int(below) - 2
    # quotients below 3 leave no room for a whole step
    for quotient, room in [(2.999, 0), (2.0, 0), (0.5, -2), (0.0, -2), (-1.0, -3)]:
        assert rupture._room(8.0 + quotient * 0.25, 8.0, 0.25) == room


def test_run_that_cannot_rupture_is_refused(monkeypatch):
    # no forcing offset: the fixed point stays far above eta_c, so a gap
    # without t_end would never end; a regression fails on the count of
    # steps and jumps instead of hanging the suite
    moves = []

    def counted(real):
        def move(*args, **kwargs):
            moves.append(1)
            assert len(moves) < 1_000, "the run was not refused"
            return real(*args, **kwargs)

        return move

    patch_advance(monkeypatch, counted(solver.advance))
    monkeypatch.setattr(rupture, "jump_decoupled", counted(rupture.jump_decoupled))
    cfg = preset_config("ex1", overrides=(("forcing_offset", 0.0),))
    grid = build_grid(cfg, 64)
    with pytest.raises(DomainError, match="t-end"):
        run_with_rupture(cfg, constant_field(grid, cfg.eta_a), max_events=1)
    ops = assemble_operators(grid, cfg)
    at_rest = Field(grid, ops.fixed_point.copy())
    threshold = cfg.eta_c + cfg.numerics.event_tol * cfg.eta_a
    assert rupture._settle_steps(at_rest, cfg.numerics.dt, ops, threshold) == 0
    with pytest.raises(DomainError, match="t-end"):
        run_with_rupture(cfg, at_rest, max_events=1)


def test_run_without_evaporation_that_cannot_rupture_is_refused(monkeypatch):
    # alpha = 0 and a zero mean load: the mean stays put and the state stays
    # above min s + min(x - s), with s the zero-mean shape; at eta_a = 0.14
    # on this grid that bound is 0.016 while a Fourier bound on the transient
    # about s is -0.016.  A regression fails on the count of steps instead
    # of hanging the suite
    moves = []
    real = solver.advance

    def counted(*args, **kwargs):
        moves.append(1)
        assert len(moves) < 1_000, "the run was not refused"
        return real(*args, **kwargs)

    patch_advance(monkeypatch, counted)
    for eta_a in (0.3, 0.14):
        cfg = preset_config("ex1", overrides=(("alpha", 0.0), ("eta_a", eta_a)))
        grid = build_grid(cfg, 64)
        start = constant_field(grid, cfg.eta_a)
        threshold = cfg.eta_c + cfg.numerics.event_tol * cfg.eta_a
        ops = assemble_operators(grid, cfg)
        state = start
        for _ in range(2_000):
            state = advance(state, cfg.numerics.dt, ops)
            assert np.min(state.values) > threshold
        moves.clear()
        with pytest.raises(DomainError, match="t-end"):
            run_with_rupture(cfg, start, max_events=1)
        assert len(moves) <= 1


def test_run_without_evaporation_under_a_negative_mean_load_ruptures():
    cfg = preset_config("ex1", overrides=(("alpha", 0.0), ("forcing_offset", 4.0)))
    grid = build_grid(cfg, 64)
    ops = assemble_operators(grid, cfg)
    start = constant_field(grid, cfg.eta_a)
    assert np.mean(ops.load) < 0.0
    assert rupture._settle_steps(start, cfg.numerics.dt, ops, cfg.eta_c) is None
    events, _ = run_with_rupture(cfg, start, max_events=2)
    assert len(events) == 2


@pytest.mark.parametrize("preset, offset", [("ex1", 2.97), ("ex2", 2.94)])
def test_positive_forcing_integral_still_ruptures(monkeypatch, preset, offset):
    # neither the mean-decay horizon nor the fixed-point bound applies; the
    # run steps to its ruptures as plain stepping does
    cfg = preset_config(preset, overrides=(("forcing_offset", offset),))
    grid = build_grid(cfg, 1024)
    assert rupture.rupture_horizon(cfg, constant_field(grid, cfg.eta_a)) is None
    jumped, _ = run_with_rupture(cfg, constant_field(grid, cfg.eta_a), max_events=3)
    jumps = plain_stepping(monkeypatch)
    stepped, _ = run_with_rupture(cfg, constant_field(grid, cfg.eta_a), max_events=3)
    assert jumps == []
    assert len(jumped) == 3
    assert [e.time for e in jumped] == [e.time for e in stepped]
    assert [e.reset_intervals for e in jumped] == [e.reset_intervals for e in stepped]


def test_a_gap_takes_a_few_jumps_and_steps_only_to_cross(monkeypatch, ex1):
    # the change rate carries each gap to within one step of its crossing;
    # with the constant subsolution alone ex1's gaps take about 12 jumps
    # and 4 loop steps each
    jumps, loop_steps, locating = [], [], []
    real_jump, real_advance, real_locate = (
        rupture._jump_to_bound, solver.advance, rupture.locate_crossing
    )

    def jump_to_bound(*args):
        jumped = real_jump(*args)
        if isinstance(jumped, Field):
            jumps.append(1)
        return jumped

    def advance(*args, **kwargs):
        if not locating:
            loop_steps.append(1)
        return real_advance(*args, **kwargs)

    def locate_crossing(*args, **kwargs):
        locating.append(1)
        try:
            return real_locate(*args, **kwargs)
        finally:
            locating.pop()

    for name, patched in (("_jump_to_bound", jump_to_bound), ("locate_crossing", locate_crossing)):
        monkeypatch.setattr(rupture, name, patched)
    patch_advance(monkeypatch, advance)
    grid = build_grid(ex1, 1024)
    events, _ = run_with_rupture(ex1, constant_field(grid, ex1.eta_a), max_events=11)
    assert len(events) == 11
    assert len(jumps) <= 6 * len(events)
    # the one loop step per event is the step that crosses
    assert len(loop_steps) <= len(events)


def test_a_gap_without_evaporation_jumps_and_steps_only_to_cross(monkeypatch):
    # without evaporation the skip took every step before the crossing
    # singly, about 80 per gap here; it now jumps as with evaporation, and
    # every single step is a probe's
    cfg = preset_config("ex1", overrides=(("alpha", 0.0), ("forcing_offset", 4.0)))
    start = constant_field(build_grid(cfg, 1024), cfg.eta_a)
    jumps, probed, unprobed, probing = [], [], [], []
    real_jump, real_advance, real_step = (
        rupture.jump_decoupled, solver.advance, solver.StepProbe.step
    )

    def jump_decoupled(*args):
        jumps.append(1)
        return real_jump(*args)

    def advance(*args, **kwargs):
        (probed if probing else unprobed).append(1)
        return real_advance(*args, **kwargs)

    def step(self, tau):
        probing.append(1)
        try:
            return real_step(self, tau)
        finally:
            probing.pop()

    monkeypatch.setattr(rupture, "jump_decoupled", jump_decoupled)
    monkeypatch.setattr(solver.StepProbe, "step", step)
    patch_advance(monkeypatch, advance)
    events, _ = run_with_rupture(cfg, start, max_events=5)
    assert len(events) == 5 and len(jumps) >= len(events)
    assert unprobed == []
    # the located step of each event, and at most one step that does not cross
    taken = len(probed)
    assert taken <= 2 * len(events)
    jumps_after = plain_stepping(monkeypatch)
    stepped, _ = run_with_rupture(cfg, start, max_events=5)
    assert jumps_after == [] and len(probed) - taken > 50 * len(events)
    assert [e.time for e in events] == [e.time for e in stepped]
    assert [e.reset_intervals for e in events] == [e.reset_intervals for e in stepped]


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_a_jump_that_leaves_the_time_where_it_is_is_refused(alpha):
    # at t = 1e20 an addition of dt = 1e-4 rounds back to t
    cfg = preset_config("ex1", overrides=(("alpha", alpha),))
    grid = build_grid(cfg, 64)
    ops = assemble_operators(grid, cfg)
    threshold = cfg.eta_c + cfg.numerics.event_tol * cfg.eta_a
    late = constant_field(grid, cfg.eta_a, 1e20)
    with pytest.raises(DomainError, match="no longer advance the time"):
        rupture._jump_to_bound(late, 1e-4, ops, threshold, None)


def gap_case(config, n):
    """Operators, step size, threshold, and the state after the first jump
    of a gap from the reset level, which the change rate carries on, with
    the transient modes that jump made."""
    grid = build_grid(config, n)
    ops = assemble_operators(grid, config)
    dt = config.numerics.dt
    threshold = config.eta_c + config.numerics.event_tol * config.eta_a
    start = constant_field(grid, config.eta_a)
    return ops, dt, threshold, rupture._jump_to_bound(start, dt, ops, threshold, None)


def test_jump_below_the_change_rate_bound_is_refused(monkeypatch, ex1):
    ops, dt, threshold, state = gap_case(ex1, 256)
    c0, load_min = float(np.min(state.values)), float(np.min(ops.load))
    assert isinstance(rupture._jump_to_bound(state, dt, ops, threshold, None), Field)
    rate = rupture._change_rate(np.abs(ops.load_modes - ops.symbol * state.modes), dt, ops)
    linear = rupture._spectral_steps(c0, rate, threshold)
    assert linear >= rupture._REFINE_FROM  # this jump is refined on the saturating reach

    real = rupture.jump_decoupled
    for past_the_linear_reach in (False, True):
        taken = []

        def lowered(state, steps, *args):
            # still above the subsolution, and, for the refined jump, also
            # above the linear reach steps*rate, but below the bound
            jumped = real(state, steps, *args)
            floor = rupture._subsolution(c0, load_min, ops.alpha, dt, steps)
            if past_the_linear_reach:
                floor = max(floor, c0 - steps * rate)
            assert floor < threshold  # the jump goes past the subsolution's steps
            jumped.values += 0.5 * (floor + threshold) - np.min(jumped.values)
            taken.append(steps)
            return jumped

        monkeypatch.setattr(rupture, "jump_decoupled", lowered)
        with pytest.raises(LinearSolveError, match="below the discrete lower bound"):
            rupture._jump_to_bound(state, dt, ops, threshold, None)
        assert taken[0] > linear


@pytest.mark.parametrize("start", ["flat", "post-reset"])
def test_a_gap_pays_one_forward_transform_for_its_jumps(monkeypatch, fft_calls, ex1, start):
    # the gap transforms its start forward once, and each jumped state keeps
    # the transient modes it was made with, so up to its last jump the gap
    # transforms forward once and back once per jump
    grid = build_grid(ex1, 256)
    flat = constant_field(grid, ex1.eta_a)
    # this first run also fills the shared operators' lazily built modes
    _, after = run_with_rupture(ex1, flat, max_events=1)
    state = flat.copy() if start == "flat" else after
    skip_calls, jumps = [], []
    real = rupture._jump_to_bound

    def jump_to_bound(*args):
        jumped = real(*args)
        skip_calls[:] = fft_calls
        if isinstance(jumped, Field):
            jumps.append(1)
        return jumped

    monkeypatch.setattr(rupture, "_jump_to_bound", jump_to_bound)
    fft_calls.clear()
    events, _ = run_with_rupture(ex1, state, max_events=1)
    assert len(events) == 1 and len(jumps) >= 2
    assert skip_calls.count("rfft") == 1
    assert skip_calls.count("irfft") == len(jumps)


@pytest.mark.parametrize("preset", ["ex1", "ex3"])
def test_a_second_run_from_one_start_reuses_its_transform(monkeypatch, preset):
    # the start keeps the modes the first run formed, so a second run from
    # the same object locates the same events without transforming it again
    config = preset_config(preset)
    run_events(config, 256, 1)  # fills the shared operators' lazily built modes
    start = constant_field(build_grid(config, 256), config.eta_a)
    rows = start.values
    if config.mode == "coupled":
        start = CoupledState.from_thickness(start)
        rows = np.stack((start.h.values, start.zeta.values))
    real, of_start = np.fft.rfft, []

    def rfft(a, *args, **kwargs):
        of_start.append(np.array_equal(a, rows))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", rfft)
    runs = []
    for _ in range(2):
        of_start.clear()
        events, _ = run_with_rupture(config, start, max_events=3)
        runs.append((events, sum(of_start)))
    (first, transformed), (second, again) = runs
    assert transformed == 1 and again == 0
    assert len(first) == len(second) == 3
    for a, b in zip(first, second):
        assert a.time == b.time and a.reset_intervals == b.reset_intervals
        assert np.array_equal(a.pre_profile.values, b.pre_profile.values)
        assert np.array_equal(a.post_profile.values, b.post_profile.values)


@pytest.mark.parametrize("preset, count", [("ex1", 4), ("ex3", 3)])
def test_every_state_a_run_makes_keeps_its_own_minimum_and_mode_sum(monkeypatch, preset, count):
    # a state's minimum and mode sum are kept from where they were first
    # formed or assigned: after every jump, coupled call, probe step and
    # reset the minimum is that of the thickness exactly, and the mode sum,
    # and the kept modes, are those of the state's values up to roundoff
    made = []

    def check(kind, state):
        if not isinstance(state, (Field, CoupledState)):
            return
        made.append(kind)
        assert state.low == float(np.min(state.eta.values))
        exact = solver.mode_sum(state.grid.n, state.modes)
        assert abs(state.size - exact) <= solver._ROUNDOFF * exact
        nodal = state.values if isinstance(state, Field) else (state.h.values, state.zeta.values)
        assert np.max(np.abs(state.modes - np.fft.rfft(nodal))) <= solver._ROUNDOFF * exact

    def checked(kind, real, pick=lambda result: result):
        def make(*args, **kwargs):
            result = real(*args, **kwargs)
            check(kind, pick(result))
            return result

        return make

    monkeypatch.setattr(rupture, "_jump_to_bound", checked("jump", rupture._jump_to_bound))
    monkeypatch.setattr(
        rupture, "jump_coupled", checked("coupled", rupture.jump_coupled, lambda r: r[1])
    )
    monkeypatch.setattr(solver.StepProbe, "step", checked("step", solver.StepProbe.step))
    monkeypatch.setattr(rupture, "apply_reset", checked("reset", rupture.apply_reset))
    assert len(run_events(preset_config(preset), 256, count)) == count
    kinds = {"jump", "step", "reset"} if preset == "ex1" else {"coupled", "step", "reset"}
    assert set(made) == kinds


def test_start_at_or_below_the_threshold_is_certified_for_no_step(ex1):
    ops, dt, threshold, state = gap_case(ex1, 256)
    drive = ops.load_modes - ops.symbol * np.fft.rfft(state.values)
    rate = rupture._change_rate(np.abs(drive), dt, ops)
    assert rate > 0.0
    for c0 in (threshold, threshold - 1e-3):
        assert rupture._spectral_steps(c0, rate, threshold) == 0
        assert rupture._spectral_steps(c0, 0.0, threshold) == 0
        at = Field(state.grid, state.values - np.min(state.values) + c0, state.time)
        assert rupture._jump_to_bound(at, dt, ops, threshold, None) is None
    assert rupture._spectral_steps(threshold + 1e-3, 0.0, threshold) == sys.maxsize


def test_a_rate_too_small_to_divide_by_certifies_every_step():
    # (c0 - threshold)/rate overflows to inf, whose floor raised
    # OverflowError; without evaporation the subsolution's fall per step,
    # -dt*min(load), is such a rate
    assert rupture._spectral_steps(1e10, 1e-304, 1e-3) == sys.maxsize
    assert rupture._safe_steps(1e10, -1e-300, 0.0, 1e-4, 1e-3) == sys.maxsize


@pytest.mark.parametrize("dt", [1e-12, 1e-300])
def test_safe_steps_walk_down_in_a_few_closed_forms(monkeypatch, dt):
    # the estimate and the closed form share the rate log1p(alpha*dt); at
    # dt = 1e-300 the count is about 1e300, which a walk of single steps
    # never moves in floating point
    calls = []
    real = rupture._subsolution

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rupture, "_subsolution", counted)
    steps = rupture._safe_steps(1.0, 0.5, 1.0, dt, 0.6)
    assert len(calls) <= 4
    assert 0 < steps and real(1.0, 0.5, 1.0, dt, steps) >= 0.6


@pytest.mark.parametrize("wobble", [0.0, 1e-15])
def test_start_at_the_fixed_point_jumps_once_and_lands_on_t_end(monkeypatch, wobble):
    # the state does not move, so the change rate is roundoff and certifies
    # every step up to t_end, where the subsolution certifies a third of them
    cfg = decay_config(forcing_offset=1.0, jump_strengths=(1.5,))
    grid = build_grid(cfg, 64)
    ops = assemble_operators(grid, cfg)
    rng = np.random.default_rng(3)
    at_rest = Field(grid, ops.fixed_point * (1.0 + wobble * rng.standard_normal(grid.n)))
    moves = []

    def counted(real, name):
        def move(*args, **kwargs):
            moves.append(name)
            assert len(moves) < 100, "the run loops"
            return real(*args, **kwargs)

        return move

    patch_advance(monkeypatch, counted(solver.advance, "advance"))
    monkeypatch.setattr(rupture, "jump_decoupled", counted(rupture.jump_decoupled, "jump_decoupled"))
    events, final = run_with_rupture(cfg, at_rest, t_end=1.0)
    assert events == [] and final.time == 1.0
    assert moves.count("jump_decoupled") == 1 and moves.count("advance") <= 3
    assert np.max(np.abs(final.values - ops.fixed_point)) <= 1e-12 * np.max(ops.fixed_point)


def test_gap_past_the_horizon_raises(ex1, monkeypatch):
    monkeypatch.setattr(rupture, "rupture_horizon", lambda config, eta0: 5 * config.numerics.dt)
    grid = build_grid(ex1, 128)
    with pytest.raises(HorizonError):
        run_with_rupture(ex1, constant_field(grid, ex1.eta_a), max_events=1)


def test_horizon_covers_every_gap(ex1):
    # the discrete mean falls by 1/(1 + alpha*dt) per step, so every gap ends
    # before the horizon computed at its start
    grid = build_grid(ex1, 256)
    start = constant_field(grid, ex1.eta_a)
    events, _ = run_with_rupture(ex1, start, max_events=4)
    for event in events:
        horizon = rupture.rupture_horizon(ex1, start)
        assert event.time - start.time < horizon
        start = event.post_profile
    unforced = preset_config("ex1", overrides=(("forcing_offset", 0.0),))
    assert rupture.rupture_horizon(unforced, start) is None


def bounds_formula(config, eta0):
    """``rupture_time_bounds`` and ``rupture_horizon`` with every term formed
    from the config at each call, as they were first written."""
    _, strengths, offset = effective_parameters(config)
    alpha, eta_c = config.alpha, config.eta_c
    inf0, mean0 = float(np.min(eta0.values)), float(np.mean(eta0.values))
    shifted_c = offset / alpha + eta_c
    ratio_low = (offset / alpha + inf0) / shifted_c if shifted_c != 0.0 else math.nan
    t_lower = math.log(ratio_low) / alpha if ratio_low > 0.0 else math.nan
    ratio_up = mean0 / eta_c
    t_upper = math.log(ratio_up) / alpha if ratio_up > 0.0 else math.nan
    integral_f = math.fsum(strengths) - offset * config.omega
    lower = all(c >= 0.0 for c in strengths) and offset >= 0.0 and inf0 > eta_c
    upper = integral_f <= 0.0 and mean0 > eta_c
    horizon = None
    if upper and math.isfinite(t_upper):
        dt = config.numerics.dt
        horizon = t_upper * (1.0 + alpha * dt) + 10.0 * dt
    return (t_lower, t_upper, lower, upper), horizon


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from(("ex1", "ex2")),
    st.one_of(st.sampled_from((1e-320, 1e-12, 3e6)), st.floats(-2.0, 2.0).map(lambda e: 10.0**e)),
    st.one_of(st.sampled_from((0.0, 3.0)), st.floats(-2.0, 8.0)),
    st.floats(-0.02, 0.05),
    st.integers(0, 2**32 - 1),
)
def test_the_cached_bounds_equal_their_formulas_bit_for_bit(name, alpha, offset, base, seed):
    # the config's terms come from a per-config cache, so a gap pays only for
    # the mean of its state; the values must not move by a bit
    config = preset_config(name, overrides=(("alpha", alpha), ("forcing_offset", offset)))
    rng = np.random.default_rng(seed)
    eta0 = Field(build_grid(config, 64), base + 0.01 * rng.standard_normal(64))
    bounds, horizon = bounds_formula(config, eta0)
    got = rupture_time_bounds(config, eta0)
    times = (got.t_lower, got.t_upper)
    same = [a == b or (math.isnan(a) and math.isnan(b)) for a, b in zip(bounds[:2], times)]
    assert all(same) and bounds[2:] == (got.lower_applicable, got.upper_applicable)
    assert rupture.rupture_horizon(config, eta0) == horizon


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_initial_state_is_refused(ex1, ex3, bad):
    grid = build_grid(ex1, 64)
    eta0 = constant_field(grid, ex1.eta_a)
    eta0.values[5] = bad
    with pytest.raises(DomainError):
        run_with_rupture(ex1, eta0, max_events=1)
    with pytest.raises(DomainError):
        run_with_rupture(ex3, CoupledState.from_thickness(eta0), max_events=1)


@pytest.mark.parametrize("t_end", [math.nan, math.inf])
def test_non_finite_end_time_is_refused(t_end):
    # nan used to return no events at time 0, and inf to jump to t = 1.1e12
    # before the clock stopped advancing
    config = preset_config("ex1", overrides=(("forcing_offset", 2.0),))
    start = constant_field(build_grid(config, 256), config.eta_a)
    with pytest.raises(ValueError, match="t_end must be finite"):
        run_with_rupture(config, start, t_end=t_end)


def stepped_events(config, state, count, t_end=math.inf):
    """Event times and reset intervals of a plain stepping loop up to
    ``t_end``: one ``advance`` per step, the last one shortened to land on
    ``t_end``, the crossing located in the step that crosses."""
    ops = assemble_operators(state.eta.grid, config)
    dt = config.numerics.dt
    events = []
    while len(events) < count and state.time < t_end:
        step_dt = step_toward(t_end - state.time, dt)
        trial = advance(state, step_dt, ops)
        if np.min(trial.eta.values) > config.eta_c:
            state = trial
            continue
        _, at_rupture = locate_crossing(state, step_dt, ops, config)
        intervals = rupture_intervals(at_rupture.eta, config)
        events.append((at_rupture.time, intervals))
        state = apply_reset(at_rupture, intervals, config)
    return events


def test_batched_coupled_run_equals_plain_stepping(monkeypatch, ex3):
    grid = build_grid(ex3, 256)
    start = CoupledState.from_thickness(constant_field(grid, ex3.eta_a))
    expected = stepped_events(ex3, start, 5)
    steps = counted_advances(monkeypatch)
    events, _ = run_with_rupture(ex3, start, max_events=5)
    assert [e.reset_intervals for e in events] == [iv for _, iv in expected]
    for event, (time, _) in zip(events, expected):
        assert event.time == pytest.approx(time, rel=0, abs=1e-12)
    assert len(events) == 5
    # one bracketing step and at most eleven bisection steps per event, where
    # plain stepping takes over a hundred steps for the first gap alone
    assert len(steps) <= 5 * 12


# reduction case, junctions and their strengths, the forcing offset above
# the mass-conserving one, alpha > 0, sigma1, sigma2, tau, eta_c, eta_a, n,
# dt, and the start's wave number and amplitude
admissible_runs = st.tuples(
    st.sampled_from(("case_i", "case_ii")),
    st.lists(st.floats(0.0, 0.95), min_size=1, max_size=4, unique=True),
    st.lists(st.floats(0.2, 2.0), min_size=4, max_size=4),
    st.floats(0.0, 0.5),
    st.one_of(st.floats(0.2, 5.0), st.floats(5.0, 80.0)),
    st.floats(0.1, 3.0),
    st.floats(0.1, 3.0),
    st.floats(0.5, 2.0),
    st.floats(-14.0, -2.5).map(lambda e: 10.0**e),
    st.floats(0.02, 0.05),
    st.integers(64, 1024),
    st.floats(-4.3, -3.3).map(lambda e: 10.0**e),
    st.integers(1, 4),
    st.floats(0.0, 0.3),
)


def admissible_run(mode, evaporation, params):
    """A random admissible configuration of the given mode, with evaporation
    or without, and a start on its grid."""
    (case, junctions, strengths, excess, alpha, sigma1, sigma2, tau,
     eta_c, eta_a, n, dt, wave, amplitude) = params
    alpha = alpha if evaporation else 0.0
    junctions = sorted(junctions)
    strengths = strengths[: len(junctions)]
    config = ModelConfig(
        omega=1.0,
        junctions=junctions,
        jump_strengths=strengths,
        forcing_offset=math.fsum(strengths) * (1.0 + excess),
        sigma1=sigma1,
        sigma2=sigma2,
        tau=tau,
        alpha=alpha,
        eta_c=eta_c,
        eta_a=eta_a,
        d=0.1,
        mode=mode,
        reduction_case=case,
        numerics=Numerics(dt=dt),
    )
    grid = build_grid(config, n)
    start = Field(grid, eta_a * (1.0 + amplitude * np.sin(2.0 * np.pi * wave * grid.nodes)))
    return config, CoupledState.from_thickness(start) if mode == "coupled" else start


@pytest.mark.parametrize("mode", ["decoupled", "coupled"])
@pytest.mark.parametrize("evaporation", [True, False])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(params=admissible_runs)
# ex1's forcing with sigma2 = 1e12, whose fixed point lies within 1e-13 of
# 0, and with eta_a = 1e300: the random sigma2 (0.1 to 3) and eta_a never
# reach this regime, where jumps certify down to eta_c itself
@example(params=("case_i", [0.1, 0.6, 0.9], [1.0, 1.0, 1.0, 1.0], 0.0, 80.0, 1.0, 1e12, 1.0,
                 10.0**-2.5, 0.03, 64, 10.0**-4.3, 1, 0.0))
@example(params=("case_i", [0.1, 0.6, 0.9], [1.0, 1.0, 1.0, 1.0], 0.0, 80.0, 1.0, 1.0, 1.0,
                 10.0**-2.5, 1e300, 64, 10.0**-4.3, 1, 0.0))
def test_run_equals_plain_stepping_on_random_configurations(mode, evaporation, params):
    # jumps, the coupled kernel, the kept modes and the bounds change no
    # event time or reset interval of plain stepping
    config, start = admissible_run(mode, evaporation, params)
    t_end = 0.05
    try:
        events, _ = run_with_rupture(config, start, max_events=4, t_end=t_end)
    except StagnationError:  # a time step too coarse for the threshold gap
        assume(False)
    expected = stepped_events(config, start, 4, t_end)
    assert [(e.time, e.reset_intervals) for e in events] == expected


def test_a_coupled_gap_is_one_kernel_call_with_one_check_per_equation(monkeypatch, ex3):
    # batches of 16 steps took 31 kernel calls and 62 checks here
    calls = {"kernel": 0, "checks": 0}
    inside = []
    kernel, check = rupture.jump_coupled, solver.solve_periodic_tridiagonal

    def counted_kernel(*args):
        calls["kernel"] += 1
        inside.append(1)
        try:
            return kernel(*args)
        finally:
            inside.pop()

    def counted_check(*args):
        calls["checks"] += bool(inside)
        return check(*args)

    monkeypatch.setattr(rupture, "jump_coupled", counted_kernel)
    monkeypatch.setattr(solver, "solve_periodic_tridiagonal", counted_check)
    start = CoupledState.from_thickness(constant_field(build_grid(ex3, 256), ex3.eta_a))
    events, _ = run_with_rupture(ex3, start, max_events=5)
    assert len(events) == 5
    assert calls == {"kernel": 5, "checks": 10}


@pytest.mark.parametrize("t_end", [1e-3, 0.02])
def test_batched_coupled_run_lands_on_t_end(ex3, t_end):
    # ten repeated additions of dt = 1e-4 overshoot 1e-3 by roundoff, so the
    # batch must leave the last step to the shortened step that lands
    grid = build_grid(ex3, 256)
    start = CoupledState.from_thickness(constant_field(grid, ex3.eta_a))
    events, final = run_with_rupture(ex3, start, t_end=t_end)
    assert final.time == final.h.time == t_end
    assert all(event.time < t_end for event in events)


def test_shared_operators_follow_the_config_and_the_grid(ex1):
    # configs that differ only in alpha or only in the offset, and grids that
    # differ only in size, alternate in one process without sharing a bundle
    cases = [
        (ex1, 256),
        (replace(ex1, alpha=1.5), 256),
        (replace(ex1, forcing_offset=3.1), 256),
        (ex1, 128),
    ]

    def event_times(config, n):
        start = constant_field(build_grid(config, n), config.eta_a)
        events, _ = run_with_rupture(config, start, max_events=2)
        return [event.time for event in events]

    fresh = []
    for case in cases:
        solver.assemble_operators.cache_clear()
        fresh.append(event_times(*case))
    assert len({tuple(times) for times in fresh}) == len(cases)
    for _ in range(2):
        for case, times in zip(cases, fresh):
            assert event_times(*case) == times
    # an equal grid and an equal config share one bundle
    ops = assemble_operators(build_grid(ex1, 256), ex1)
    assert assemble_operators(build_grid(ex1, 256), replace(ex1)) is ops


def test_a_config_built_from_lists_can_key_the_shared_operators():
    listed = decay_config(junctions=[0.5], jump_strengths=[0.0])
    assert listed == decay_config() and hash(listed) == hash(decay_config())
    start = constant_field(build_grid(listed, 32), listed.eta_a)
    events, _ = run_with_rupture(listed, start, max_events=1)
    assert len(events) == 1


def test_shared_operators_are_read_only(ex1, ex3):
    for config in (ex1, ex3):
        ops = assemble_operators(build_grid(config, 64), config)
        dt = config.numerics.dt
        arrays = (ops.load, ops.height_load, ops.symbol, ops.fixed_point,
                  ops.reach_weights, ops.load_modes, ops.height_load_modes,
                  *ops.decoupled_factors(dt), *ops.coupled_tables(dt))
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0


def test_coupled_runs_sharing_one_bundle_in_two_threads_match_sequential_runs(ex3):
    # the bundle and its lazily filled tables are shared; every buffer a
    # coupled gap writes must belong to its call
    grid = build_grid(ex3, 256)
    flat = constant_field(grid, ex3.eta_a)
    wavy = Field(grid, ex3.eta_a * (1.0 + 0.2 * np.sin(2.0 * np.pi * 3.0 * grid.nodes)))
    starts = [CoupledState.from_thickness(eta) for eta in (flat, wavy)]

    def run(start):
        return run_with_rupture(ex3, start.copy(), max_events=5)

    sequential = [run(start) for start in starts]
    solver.assemble_operators.cache_clear()
    solver.Operators.coupled_tables.cache_clear()
    ops = assemble_operators(grid, ex3)  # one bundle; its tables fill in the threads
    barrier = threading.Barrier(len(starts))
    threaded = [None] * len(starts)

    def worker(index):
        barrier.wait()
        try:
            threaded[index] = run(starts[index])
        except Exception as exc:
            threaded[index] = exc

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(starts))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that they interleave
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not any(isinstance(result, Exception) for result in threaded), threaded
    assert assemble_operators(grid, ex3) is ops
    for (events, final), (expected, expected_final) in zip(threaded, sequential):
        assert len(events) == len(expected) == 5
        for event, reference in zip(events, expected):
            assert event.time == reference.time
            assert event.reset_intervals == reference.reset_intervals
            for name in ("pre_profile", "post_profile", "pre_h", "post_h"):
                assert np.array_equal(getattr(event, name).values, getattr(reference, name).values)
        assert final.time == expected_final.time
        assert np.array_equal(final.h.values, expected_final.h.values)
        assert np.array_equal(final.zeta.values, expected_final.zeta.values)


@pytest.mark.parametrize("preset", ["ex1", "ex3"])
def test_runs_from_one_start_in_threads_match_a_run_from_a_copy(preset):
    # runs from one start object share the quantities it forms on first
    # use, which threads that form them at once store as equal values
    config = preset_config(preset)
    start = constant_field(build_grid(config, 256), config.eta_a)
    if config.mode == "coupled":
        start = CoupledState.from_thickness(start)
    expected, _ = run_with_rupture(config, start.copy(), max_events=3)
    workers = 4
    barrier = threading.Barrier(workers)
    results = [None] * workers

    def worker(index):
        barrier.wait()
        try:
            results[index] = run_with_rupture(config, start, max_events=3)[0]
        except Exception as exc:
            results[index] = exc

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that they interleave
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for events in results:
        assert not isinstance(events, Exception), events
        assert len(events) == len(expected) == 3
        for event, reference in zip(events, expected):
            assert event.time == reference.time
            assert event.reset_intervals == reference.reset_intervals
            assert np.array_equal(event.pre_profile.values, reference.pre_profile.values)


def test_no_deadline_is_computed_after_the_last_event(monkeypatch, ex1):
    horizons = []
    real = rupture.rupture_horizon

    def counted(config, eta0):
        horizons.append(eta0.time)
        return real(config, eta0)

    monkeypatch.setattr(rupture, "rupture_horizon", counted)
    start = constant_field(build_grid(ex1, 256), ex1.eta_a)
    events, _ = run_with_rupture(ex1, start, max_events=3)
    assert horizons == [0.0] + [event.time for event in events[:-1]]
