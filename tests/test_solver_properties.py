"""Properties of the per-mode cyclic solve, the implicit step and the
multi-step jumps over random admissible step parameters ``(n, dt, sigma,
alpha)`` on the unit domain."""
import math
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rupturesim import rupture, solver
from rupturesim.config import ModelConfig, Numerics
from rupturesim.solver import (
    CoupledState,
    Field,
    advance,
    assemble_operators,
    build_grid,
    jump_decoupled,
    solve_periodic_tridiagonal,
    step_decoupled,
)

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

step_parameters = st.tuples(
    st.integers(4, 512),
    st.floats(-5.0, -1.0).map(lambda e: 10.0**e),
    st.floats(-2.0, 1.0).map(lambda e: 10.0**e),
    st.floats(0.0, 100.0),
)
seeds = st.integers(0, 2**32 - 1)


def jump_parameters_up_to(max_steps):
    """Positive evaporation, up to ``max_steps`` steps, and a load of either
    sign."""
    return st.tuples(
        st.integers(4, 512),
        st.floats(-5.0, -1.0).map(lambda e: 10.0**e),
        st.floats(-2.0, 1.0).map(lambda e: 10.0**e),
        st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
        st.integers(1, max_steps),
        st.tuples(*[st.floats(-2.0, 2.0)] * 3),
        st.floats(-3.0, 3.0),
    )


jump_parameters = jump_parameters_up_to(50)
# n, dt, alpha, sigma1, tau, forcing offset, steps, and which gap between
# the sorted thickness minima of the steps holds the floor
coupled_parameters = st.tuples(
    st.integers(4, 512),
    st.floats(-5.0, -2.0).map(lambda e: 10.0**e),
    st.floats(0.0, 60.0),
    st.floats(-2.0, 1.0).map(lambda e: 10.0**e),
    st.floats(-0.5, 0.5).map(lambda e: 10.0**e),
    st.floats(-3.0, 3.0),
    st.integers(1, 100),
    st.integers(0, 101),
)
# roundoff relative to the larger of the start state and the a-priori bound
# max|load|/alpha on the fixed point; measured worst cases are about 1e-13
JUMP_TOL = 1e-12


def step_matrix(n, dt, sigma, alpha):
    dx2 = (1.0 / n) ** 2
    return 1.0 / dt + 2.0 * sigma / dx2 + alpha, -sigma / dx2


def dense(n, diag, off):
    matrix = np.zeros((n, n))
    i = np.arange(n)
    matrix[i, i] = diag
    matrix[i, (i + 1) % n] += off
    matrix[i, (i - 1) % n] += off
    return matrix


def random_rhs(n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0) + rng.standard_normal(n)


@PROPERTY_SETTINGS
@given(step_parameters, seeds)
def test_cached_solve_matches_dense_solve(params, seed):
    n = params[0]
    diag, off = step_matrix(*params)
    rhs = random_rhs(n, seed)
    got = solve_periodic_tridiagonal(diag, off, rhs)
    expected = np.linalg.solve(dense(n, diag, off), rhs)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def clear_solve_caches():
    solver._second_difference_symbol.cache_clear()
    solver._inverse_symbol.cache_clear()


@PROPERTY_SETTINGS
@given(step_parameters, seeds)
def test_repeat_solve_is_bit_identical_cold_or_warm(params, seed):
    n = params[0]
    diag, off = step_matrix(*params)
    rhs = random_rhs(n, seed)
    clear_solve_caches()
    cold = solve_periodic_tridiagonal(diag, off, rhs)
    warm = solve_periodic_tridiagonal(diag, off, rhs)
    clear_solve_caches()
    cold_again = solve_periodic_tridiagonal(diag, off, rhs)
    assert np.array_equal(cold, warm)
    assert np.array_equal(cold, cold_again)


@PROPERTY_SETTINGS
@given(step_parameters)
def test_cached_factors_are_read_only(params):
    # the cached solve data: the per-n eigenvalue table of the second
    # difference and the per-matrix reciprocal eigenvalues
    n = params[0]
    for table in (
        solver._second_difference_symbol(n),
        solver._inverse_symbol(n, *step_matrix(*params)),
    ):
        with pytest.raises(ValueError):
            table[0] = 1


def operators(n, sigma, alpha, strengths=(1.0, 1.0, 1.0), offset=3.0):
    config = ModelConfig(
        omega=1.0,
        junctions=(0.1, 0.6, 0.9),
        jump_strengths=strengths,
        forcing_offset=offset,
        sigma1=sigma,
        sigma2=sigma,
        tau=1.0,
        alpha=alpha,
        eta_c=1e-3,
        eta_a=0.03,
        d=0.1,
    )
    return assemble_operators(build_grid(config, n), config)


def jump_case(params, seed):
    """Operators, a random start, the step count, the step size and the
    roundoff scale of one jump example."""
    n, dt, sigma, alpha, steps, strengths, offset = params
    ops = operators(n, sigma, alpha, strengths, offset)
    start = Field(ops.grid, random_rhs(n, seed))
    scale = max(np.max(np.abs(start.values)), np.max(np.abs(ops.load)) / alpha)
    return ops, start, steps, dt, scale


def mean_step(mean, dt, ops):
    """Exact one-step law of the discrete mean: the stiffness rows sum to 0."""
    return (mean / dt + np.mean(ops.load)) / (1.0 / dt + ops.alpha)


@PROPERTY_SETTINGS
@given(step_parameters, seeds)
def test_decoupled_step_preserves_order(params, seed):
    n, dt, sigma, alpha = params
    ops = operators(n, sigma, alpha)
    rng = np.random.default_rng(seed)
    low = rng.standard_normal(n)
    high = low + rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.5)
    stepped_low = step_decoupled(Field(ops.grid, low), dt, ops).values
    stepped_high = step_decoupled(Field(ops.grid, high), dt, ops).values
    # the exact step is monotone; allow only roundoff below it
    scale = max(np.max(np.abs(stepped_low)), np.max(np.abs(stepped_high)))
    assert np.min(stepped_high - stepped_low) >= -1e-13 * scale


@PROPERTY_SETTINGS
@given(jump_parameters, seeds)
def test_jump_matches_repeated_steps(params, seed):
    ops, start, steps, dt, scale = jump_case(params, seed)
    stepped = start
    for _ in range(steps):
        stepped = step_decoupled(stepped, dt, ops)
    jumped, _ = jump_decoupled(start, steps, dt, ops)
    assert np.max(np.abs(jumped.values - stepped.values)) <= JUMP_TOL * scale
    assert jumped.time == stepped.time  # repeated additions of dt, as stepping


@PROPERTY_SETTINGS
@given(jump_parameters, seeds)
def test_step_and_jump_obey_the_mean_decay_law(params, seed):
    ops, start, steps, dt, scale = jump_case(params, seed)
    state, mean = start, float(np.mean(start.values))
    for _ in range(steps):
        state = step_decoupled(state, dt, ops)
        expected = mean_step(mean, dt, ops)
        assert abs(np.mean(state.values) - expected) <= JUMP_TOL * scale
        mean = float(np.mean(state.values))
    expected = float(np.mean(start.values))
    for _ in range(steps):
        expected = mean_step(expected, dt, ops)
    jumped, _ = jump_decoupled(start, steps, dt, ops)
    assert abs(np.mean(jumped.values) - expected) <= JUMP_TOL * scale


@PROPERTY_SETTINGS
@given(jump_parameters, seeds)
def test_jump_stays_above_the_constant_subsolution(params, seed):
    ops, start, steps, dt, scale = jump_case(params, seed)
    bound = rupture._subsolution(
        float(np.min(start.values)), float(np.min(ops.load)), ops.alpha, dt, steps
    )
    jumped, _ = jump_decoupled(start, steps, dt, ops)
    assert np.min(jumped.values) >= bound - JUMP_TOL * scale


@PROPERTY_SETTINGS
@given(jump_parameters)
# a fixed point far smaller than max|load|/alpha, which scales the roundoff
# of mean(load)/alpha: the error is 2.8e-15, 6.8 times 1e-14*max|x*|
@example((4, 1e-3, 1.0, 0.01, 1, (0.0, 1.0, 2.0**-24), 1.0))
def test_fixed_point_solves_the_stationary_system(params):
    n, _, sigma, alpha, _, strengths, offset = params
    ops = operators(n, sigma, alpha, strengths, offset)
    fixed = ops.fixed_point
    residual = alpha * fixed + sigma * ops.stiffness_matvec(fixed) - ops.load
    diag = alpha + 4.0 * sigma * n * n
    assert np.max(np.abs(residual)) <= 1e-12 * diag * np.max(np.abs(fixed))
    scale = max(np.max(np.abs(fixed)), np.max(np.abs(ops.load)) / alpha)
    assert abs(np.mean(fixed) - np.mean(ops.load) / alpha) <= 1e-14 * scale
    with pytest.raises(ValueError):
        fixed[0] = 1


def exact_values(start, steps, dt, ops):
    """State after ``steps`` steps by the closed form, without counting the
    time step by step as ``jump_decoupled`` does."""
    fixed, symbol = ops.fixed_point, ops.symbol
    modes = np.fft.rfft(start.values - fixed) * (1.0 + dt * symbol) ** -float(steps)
    return fixed + np.fft.irfft(modes, ops.grid.n)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(jump_parameters_up_to(10**6), seeds)
def test_jump_that_skips_underflowing_factors_equals_the_uncut_closed_form(params, seed):
    ops, start, steps, dt, _ = jump_case(params, seed)
    jumped, _ = jump_decoupled(start, steps, dt, ops)
    assert np.array_equal(jumped.values, exact_values(start, steps, dt, ops))


@pytest.mark.parametrize("kind", ["flat", "noise"])
def test_first_jump_of_a_fine_ex1_gap_equals_the_uncut_closed_form(ex1, kind):
    # at n = 8192 the first jump of an ex1 gap takes 99 steps, over which
    # most factors of the uncut closed form underflow or turn subnormal
    ops = assemble_operators(build_grid(ex1, 8192), ex1)
    dt, steps, n = 1e-4, 99, ops.grid.n
    uncut = (1.0 + dt * ops.symbol) ** -float(steps)
    assert np.count_nonzero(uncut < sys.float_info.min) > n // 3
    values = np.full(n, ex1.eta_a) if kind == "flat" else random_rhs(n, 5)
    start = Field(ops.grid, values)
    jumped, _ = jump_decoupled(start, steps, dt, ops)
    assert np.array_equal(jumped.values, exact_values(start, steps, dt, ops))


def test_jump_of_steps_too_small_to_move_the_state_keeps_every_mode():
    # 1 + dt*symbol rounds to 1 in every mode, so every factor is 1 and the
    # state does not move; a cut that tested 1 + dt*symbol against a power
    # of 2 would drop every mode and land on the fixed point
    ops = operators(64, 1.0, 1.0)
    start = Field(ops.grid, random_rhs(64, 11))
    dt, steps = 1e-300, sys.maxsize
    jumped, modes = jump_decoupled(start, steps, dt, ops)
    assert np.array_equal(modes, solver.decoupled_transient(start, ops))
    assert np.array_equal(jumped.values, exact_values(start, steps, dt, ops))
    scale = np.max(np.abs(start.values))
    assert np.max(np.abs(jumped.values - start.values)) <= JUMP_TOL * scale
    assert np.max(np.abs(start.values - ops.fixed_point)) > 0.1 * scale


@PROPERTY_SETTINGS
@given(jump_parameters, seeds, st.floats(1e-6, 1.0))
def test_run_stays_above_the_threshold_after_the_settle_count(params, seed, depth):
    ops, start, _, dt, scale = jump_case(params, seed)
    threshold = np.min(ops.fixed_point) - depth * (scale + 1.0)
    settle = rupture._settle_steps(start, dt, ops, threshold)
    assert settle is not None
    for later in (0, 1, 7, 50, 10**6):
        values = exact_values(start, settle + later, dt, ops)
        assert np.min(values) >= threshold - JUMP_TOL * scale


# n, dt, sigma, strengths, the mean load (nonnegative, down to where a
# start on the bound stays within roundoff of it) and the start's kind
evaporation_free_parameters = st.tuples(
    st.integers(4, 512),
    st.floats(-5.0, -1.0).map(lambda e: 10.0**e),
    st.floats(-2.0, 1.0).map(lambda e: 10.0**e),
    st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    st.one_of(st.just(0.0), st.floats(-9.0, 0.5).map(lambda e: 10.0**e)),
    st.sampled_from(("noise", "shape")),
)


def zero_mean_shape(ops):
    """The zero-mean ``s`` with ``sigma K s = load - mean(load)``, by a dense
    solve: adding the projector onto constants makes the system regular and
    keeps the mean of its solution at 0."""
    n = ops.grid.n
    matrix = ops.sigma * dense(n, 2.0, -1.0) / ops.grid.dx**2 + 1.0 / n
    return np.linalg.solve(matrix, ops.load - np.mean(ops.load))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(evaporation_free_parameters, seeds, st.floats(1e-6, 1.0))
def test_run_without_evaporation_stays_above_the_positivity_bound(params, seed, depth):
    # with alpha = 0 the step is nonnegative with row sums 1 and lifts the
    # zero-mean shape s by dt*mean(load) >= 0, so no later state falls below
    # min s + min(x - s); a start on s plus a constant sits on that bound
    n, dt, sigma, strengths, mean_load, kind = params
    ops = operators(n, sigma, 0.0, strengths, math.fsum(strengths) - mean_load)
    shape = zero_mean_shape(ops)
    noise = random_rhs(n, seed)
    start = Field(ops.grid, noise if kind == "noise" else shape + noise[0])
    bound = float(np.min(shape) + np.min(start.values - shape))
    scale = max(np.max(np.abs(start.values)), np.max(np.abs(shape)))
    gap = depth * (scale + 1.0)
    assert rupture._settle_steps(start, dt, ops, bound + gap) is None
    settle = rupture._settle_steps(start, dt, ops, bound - gap)
    if np.mean(ops.load) < 0.0:
        assert settle is None
        return
    assert settle == 0
    state = start
    for _ in range(200):
        state = advance(state, dt, ops)
        assert np.min(state.values) >= bound - JUMP_TOL * scale


# n, dt, sigma, alpha, the load, the start's kind and sign, the certified
# step count and where the threshold falls inside the next step's rate
certificate_parameters = st.tuples(
    st.integers(4, 512),
    st.floats(-5.0, -1.0).map(lambda e: 10.0**e),
    st.floats(-2.0, 1.0).map(lambda e: 10.0**e),
    st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
    st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    st.floats(-3.0, 3.0),
    st.sampled_from(("noise", "spike", "shift")),
    st.sampled_from((-1.0, 1.0)),
    st.integers(0, 60),
    st.floats(0.05, 0.95),
)


def certificate_start(ops, kind, sign, seed):
    """A start of the given kind: noise of either sign, the fixed point with
    its lowest node raised or lowered by half the gap to the next lowest
    (raised, the node falls by exactly the change rate in one step, so the
    bound is tight), or the fixed point shifted by a constant."""
    fixed = ops.fixed_point
    if kind == "noise":
        return Field(ops.grid, sign * random_rhs(ops.grid.n, seed))
    if kind == "spike":
        lowest, second = np.partition(fixed, 1)[:2]
        values = fixed.copy()
        values[np.argmin(fixed)] += sign * 0.5 * max(second - lowest, 1e-3 * (1.0 + abs(lowest)))
        return Field(ops.grid, values)
    return Field(ops.grid, fixed + sign * 0.1 * (1.0 + np.max(np.abs(fixed))))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(certificate_parameters, seeds)
def test_steps_stay_within_the_change_rate_of_the_start(params, seed):
    n, dt, sigma, alpha, strengths, offset, kind, sign, count, inside = params
    ops = operators(n, sigma, alpha, strengths, offset)
    start = certificate_start(ops, kind, sign, seed)
    c0 = float(np.min(start.values))
    scale = rupture._roundoff_scale(start, ops)
    rate = rupture._change_rate(solver.decoupled_transient(start, ops), dt, ops)
    # a rate within roundoff of the state moves no node measurably
    assume(rate > 1e3 * JUMP_TOL * scale)
    threshold = c0 - (count + inside) * rate
    certified = rupture._spectral_steps(c0, rate, threshold)
    assert certified == count
    state = start
    for j in range(1, min(certified, 60) + 1):
        state = advance(state, dt, ops)
        low = float(np.min(state.values))
        assert low >= c0 - j * rate - JUMP_TOL * scale
        assert low > threshold


def coupled_case(params, seed):
    """Operators, a random coupled start, the step count, the step size and
    the thickness floor of one batched coupled example."""
    n, dt, alpha, sigma1, tau, offset, steps, pick = params
    config = ModelConfig(
        omega=1.0,
        junctions=(0.1, 0.6, 0.9),
        jump_strengths=(1.0, 1.0, 1.0),
        forcing_offset=offset,
        sigma1=sigma1,
        sigma2=1.0,
        tau=tau,
        alpha=alpha,
        eta_c=1e-3,
        eta_a=0.03,
        d=0.1,
        mode="coupled",
    )
    grid = build_grid(config, n)
    rng = np.random.default_rng(seed)
    h = Field(grid, rng.standard_normal(n))
    zeta = Field(grid, h.values + rng.uniform(0.05, 1.0) + 0.05 * rng.random(n))
    return assemble_operators(grid, config), CoupledState(h, zeta), steps, dt, pick


@PROPERTY_SETTINGS
@given(coupled_parameters, seeds)
def test_coupled_batch_matches_repeated_steps(params, seed):
    ops, start, steps, dt, pick = coupled_case(params, seed)
    states, lows = [start], []
    for _ in range(steps):
        states.append(advance(states[-1], dt, ops))
        lows.append(float(np.min(states[-1].eta.values)))
    ranked = [min(lows) - 1.0, *sorted(lows), max(lows) + 1.0]
    gap = pick % (len(ranked) - 1)
    floor = 0.5 * (ranked[gap] + ranked[gap + 1])
    # a floor within roundoff of a step's minimum could go either way
    assume(min(abs(low - floor) for low in lows) > 1e-10 * (1.0 + max(map(abs, lows))))
    expected = next((i for i, low in enumerate(lows) if low <= floor), steps)

    taken, batched, _ = solver.jump_coupled(start, steps, dt, ops, floor)
    assert taken == expected
    stepped = states[taken]
    assert batched.time == stepped.time  # repeated additions of dt, as stepping
    scale = max(np.max(np.abs(stepped.h.values)), np.max(np.abs(stepped.zeta.values)))
    assert np.max(np.abs(batched.h.values - stepped.h.values)) <= JUMP_TOL * scale
    assert np.max(np.abs(batched.zeta.values - stepped.zeta.values)) <= JUMP_TOL * scale


@PROPERTY_SETTINGS
@given(
    st.floats(0.0, 1e4),
    st.floats(-9.0, 0.0).map(lambda e: 10.0**e),
    st.integers(0, 10**5),
    st.one_of(st.none(), st.integers(0, 2**20)),
)
def test_time_after_equals_repeated_addition(time, dt, steps, half):
    if half is not None and time > 0.0:
        # dt leaves exactly half an ulp of the start time: round-to-even
        dt = (2 * half + 1) * math.ulp(time) / 2
    expected = time
    for _ in range(steps):
        expected += dt
    assert solver._time_after(time, steps, dt) == expected


def crossing_parameters_over(kinds, max_n, alphas):
    """kind, n, dt, alpha, sigma, tau, forcing offset, where the threshold
    falls between the minima after the step and before it (None: on the
    minimum after half the step, the first trial, so that a decision is a
    tie), and the event tolerance."""
    return st.tuples(
        st.sampled_from(kinds),
        st.integers(8, max_n),
        st.floats(-5.0, -1.0).map(lambda e: 10.0**e),
        alphas,
        st.floats(-2.0, 1.0).map(lambda e: 10.0**e),
        st.floats(-0.5, 0.5).map(lambda e: 10.0**e),
        st.floats(0.0, 30.0),
        st.one_of(st.none(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        st.floats(-9.0, -2.0).map(lambda e: 10.0**e),
    )


crossing_parameters = crossing_parameters_over(("decoupled", "coupled"), 512, st.floats(0.0, 60.0))


def crossing_case(params, seed, bracket=True):
    """A config whose threshold one step of ``dt`` from a random start
    crosses (with ``bracket``), the operators, the start and ``dt``."""
    kind, n, dt, alpha, sigma, tau, offset, where, event_tol = params
    config = ModelConfig(
        omega=1.0,
        junctions=(0.1, 0.6, 0.9),
        jump_strengths=(1.0, 1.0, 1.0),
        forcing_offset=offset,
        sigma1=sigma,
        sigma2=sigma,
        tau=tau,
        alpha=alpha,
        eta_c=1e-3,
        eta_a=0.03,
        d=0.1,
        mode=kind,
        numerics=Numerics(dt=dt, event_tol=event_tol),
    )
    grid = build_grid(config, n)
    ops = assemble_operators(grid, config)
    rng = np.random.default_rng(seed)
    eta = Field(grid, 1.0 + rng.uniform(0.0, 0.01) * rng.random(n))
    start = eta
    if kind == "coupled":
        h = Field(grid, rng.standard_normal(n))
        start = CoupledState(h, Field(grid, h.values + eta.values))
    if not bracket:
        return config, ops, start, dt
    before = float(np.min(start.eta.values))
    after = float(np.min(advance(start, dt, ops).eta.values))
    assume(0.0 < after < before)
    if where is None:
        eta_c = float(np.min(advance(start, 0.5 * dt, ops).eta.values))
    else:
        eta_c = after + where * (before - after)
    assume(after < eta_c < before)
    config = replace(config, eta_c=eta_c, eta_a=2.0 * before)
    return config, ops, start, dt


# kind, n, dt, sigma, sigma1, tau, the fraction of dt stepped, and the seed
step_cases = (
    st.sampled_from(("decoupled", "coupled")),
    st.integers(8, 2048),
    st.floats(-5.0, -1.0).map(lambda e: 10.0**e),
    st.floats(-2.0, 1.0).map(lambda e: 10.0**e),
    st.floats(-2.0, 1.0).map(lambda e: 10.0**e),
    st.floats(-0.5, 0.5).map(lambda e: 10.0**e),
    st.floats(1e-3, 1.0),
    seeds,
)


def step_case(kind, n, dt, sigma, sigma1, tau, seed):
    """Operators and a random state of either kind, with the height's
    diffusivity ``sigma1/tau`` drawn apart from the thickness's ``sigma``."""
    config, ops, pre, _ = crossing_case(
        (kind, n, dt, 5.0, sigma, tau, 3.0, 0.5, 1e-6), seed, bracket=False
    )
    return assemble_operators(ops.grid, replace(config, sigma1=sigma1)), pre


def config_probe(pre, dt, ops, config, modes=None):
    """The step probe the bisection makes against ``config``'s threshold
    and value tolerance."""
    floor = config.eta_c - config.numerics.event_tol * config.eta_a
    return solver.StepProbe(pre, dt, ops, config.eta_c, floor, modes)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(*step_cases)
def test_trial_in_modes_agrees_with_advance(kind, n, dt, sigma, sigma1, tau, fraction, seed):
    # the trial takes the step with the solves' own arithmetic, also where
    # sigma*dt/dx^2 is large and the step matrix's eigenvalues lose digits to
    # cancellation, so its minimum is that of advance bit for bit
    ops, pre = step_case(kind, n, dt, sigma, sigma1, tau, seed)
    trial = solver.StepProbe(pre, dt, ops, -math.inf, -math.inf)  # no threshold
    step = fraction * dt
    assert trial.minimum_after(step) == float(np.min(advance(pre, step, ops).eta.values))


def state_modes(state):
    """The rfft modes of a state as the event loop carries them: one row,
    or the rows of ``h`` and ``zeta``."""
    if isinstance(state, CoupledState):
        return np.fft.rfft(np.stack((state.h.values, state.zeta.values)))
    return np.fft.rfft(state.values)


def state_arrays(state):
    if isinstance(state, CoupledState):
        return state.h.values, state.zeta.values
    return (state.values,)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(*step_cases)
def test_a_step_from_the_state_equals_the_step_from_its_modes(
    kind, n, dt, sigma, sigma1, tau, fraction, seed
):
    # advance forms the right side's modes from the state's modes whether it
    # transforms the state itself or is given them
    ops, pre = step_case(kind, n, dt, sigma, sigma1, tau, seed)
    step = fraction * dt
    stepped, from_modes = advance(pre, step, ops), advance(pre, step, ops, state_modes(pre))
    assert stepped.time == from_modes.time
    for got, want in zip(state_arrays(stepped), state_arrays(from_modes)):
        assert np.array_equal(got, want)


def bounded_case(params, seed, smoothing, reset):
    """A :func:`crossing_case` start carried ``smoothing`` steps of ``100*dt``
    toward its kind's equilibrium, which leaves a few live modes of the
    change, as in the event loop near a crossing; then, with ``reset``,
    reset on the interval ``[0.1, 0.6)`` as a rupture resets it, which
    makes many modes live again."""
    config, ops, pre, dt = crossing_case(params, seed, bracket=False)
    for _ in range(smoothing):
        pre = advance(pre, 100.0 * dt, ops)
    if reset:  # as apply_reset resets, to a level above the whole state
        level = float(np.max(pre.eta.values)) + 0.01
        mask = rupture.reset_mask(ops.grid, config, (0,))
        if isinstance(pre, CoupledState):
            h, zeta = pre.h.values.copy(), pre.zeta.values.copy()
            h[mask] -= config.d
            zeta[mask] = h[mask] + level
            pre = CoupledState(Field(ops.grid, h), Field(ops.grid, zeta))
        else:
            values = pre.values.copy()
            values[mask] = level
            pre = Field(ops.grid, values)
    return config, ops, pre, dt


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    crossing_parameters_over(
        ("decoupled", "coupled"), 8192, st.one_of(st.just(0.0), st.floats(0.0, 60.0))
    ),
    seeds,
    st.floats(1e-3, 1.0),
    st.booleans(),
    st.integers(0, 3),
    st.booleans(),
)
# sigma*dt/dx^2 so large that advance's minimum lies about six trial margins
# above the cancellation-free step, which a bound without the stiffness part
# of its allowance would take for a crossing
@example(("decoupled", 8192, 1e-4, 0.0, 10.0, 1.0, 0.0, None, 1e-6), 0, 0.75, True, 0, False)
# the same, carried near equilibrium, where four modes at about 950 nodes
# decide: advance lies 4.7 trial margins below the exact step at 0.6*dt and
# 5.9 above it at 0.75*dt (coupled: 5.1 and 6.4)
@example(("decoupled", 8192, 1e-4, 0.0, 10.0, 1.0, 0.0, None, 1e-6), 0, 0.6, False, 2, False)
@example(("decoupled", 8192, 1e-4, 0.0, 10.0, 1.0, 0.0, None, 1e-6), 0, 0.75, True, 2, False)
@example(("coupled", 8192, 1e-4, 0.0, 10.0, 1.0, 0.0, None, 1e-6), 0, 0.6, False, 3, False)
@example(("coupled", 8192, 1e-4, 0.0, 10.0, 1.0, 0.0, None, 1e-6), 0, 0.75, True, 3, False)
# coupled states with the height's diffusivity below and above the
# thickness's, near the equilibrium and just after a reset
@example(("coupled", 1024, 1e-4, 1.0, 1.0, 3.0, 3.0, None, 1e-6), 1, 0.6, False, 2, False)
@example(("coupled", 1024, 1e-4, 0.0, 1.0, 0.35, 3.0, None, 1e-6), 2, 0.6, True, 2, False)
@example(("coupled", 8192, 1e-4, 5.0, 1.0, 3.0, 3.0, None, 1e-6), 3, 0.4, False, 1, True)
@example(("decoupled", 8192, 1e-4, 5.0, 1.0, 1.0, 3.0, None, 1e-6), 4, 0.4, True, 1, True)
def test_step_bounds_decide_only_as_advance_does(
    params, seed, fraction, tie_floor, smoothing, reset
):
    # the threshold (or, with tie_floor, the threshold less the value
    # tolerance) is put on the minimum after a step of fraction*dt, where a
    # bound that lost any part of its roundoff allowance would decide
    # wrongly about half the time; the other step sizes are the bisection's
    # first trials.  The decisions must be those of advance from the modes
    # the bounds were formed from
    config, ops, pre, dt = bounded_case(params, seed, smoothing, reset)
    value_tol = config.numerics.event_tol * config.eta_a
    modes = state_modes(pre)

    def minimum(tau):
        return float(np.min(advance(pre, tau, ops, modes).eta.values))

    steps = [fraction * dt] + [k * dt / 8 for k in range(1, 9)]
    tied = minimum(steps[0])
    eta_c, floor = (tied + value_tol, tied) if tie_floor else (tied, tied - value_tol)
    decide = solver.StepProbe(pre, dt, ops, eta_c, floor, modes).bound
    for tau in steps:
        bound, low = decide(tau), minimum(tau)
        if bound is None:
            continue
        if bound > eta_c:  # the step does not cross
            assert eta_c < bound <= low
        else:  # the step crosses by more than the value tolerance
            assert low <= bound < floor


@pytest.mark.parametrize("kind, smoothing", [("decoupled", 2), ("coupled", 3)])
def test_step_bounds_of_a_stiff_state_near_equilibrium_decide_most_steps(kind, smoothing):
    # 4*sigma*dt/dx^2 is about 2.7e5 here, and the roundoff in the high modes
    # of the change reaches the bare trial margin: a slack without the
    # stiffness part of its allowance would leave every mode live, the
    # candidate matrix over its budget, and no crossing decided by a bound
    params = (kind, 8192, 1e-4, 0.0, 10.0, 1.0, 0.0, None, 1e-6)
    config, ops, pre, dt = bounded_case(params, 0, smoothing, False)
    value_tol = config.numerics.event_tol * config.eta_a
    modes = state_modes(pre)
    tied = float(np.min(advance(pre, 0.6 * dt, ops, modes).eta.values))
    decide = solver.StepProbe(pre, dt, ops, tied, tied - value_tol, modes).bound
    decided = [decide(k * dt / 8) for k in range(1, 9)]
    assert sum(bound is not None for bound in decided) >= 6
    assert any(bound is not None and bound < tied for bound in decided)


def reference_crossing(pre, dt, ops, config, modes=None):
    """The bisection of plain stepping: every trial re-steps from ``pre``
    with ``advance`` from the rfft modes of ``pre`` (``modes``, else its
    own), as the crossing's located step is taken; returns the time, the
    state and the trial count."""
    eta_c = config.eta_c
    value_tol = config.numerics.event_tol * config.eta_a
    modes = state_modes(pre) if modes is None else modes
    state_hi = advance(pre, dt, ops, modes)
    lo, hi, trials = 0.0, dt, 0
    while abs(float(np.min(state_hi.eta.values)) - eta_c) > value_tol and (hi - lo) >= 1e-3 * dt:
        mid = 0.5 * (lo + hi)
        trial = advance(pre, mid, ops, modes)
        trials += 1
        if float(np.min(trial.eta.values)) <= eta_c:
            hi, state_hi = mid, trial
        else:
            lo = mid
    return hi, state_hi, trials


def counting_trials(calls):
    """Patches of the bisection's two decision seams, the probe's
    mode-space trials and its bounds, that record in ``calls`` each full
    trial as ``("trial", tau)`` and each decision a bound makes as
    ``("bound", tau)``."""
    real_trial, real_bound = solver.StepProbe.minimum_after, solver.StepProbe.bound

    def minimum_after(self, tau):
        calls.append(("trial", tau))
        return real_trial(self, tau)

    def bound(self, tau):
        low = real_bound(self, tau)
        if low is not None:
            calls.append(("bound", tau))
        return low

    return mock.patch.multiple(solver.StepProbe, minimum_after=minimum_after, bound=bound)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(crossing_parameters, seeds, st.booleans())
def test_crossing_equals_the_bisection_of_plain_stepping(params, seed, given_modes):
    config, ops, pre, dt = crossing_case(params, seed)
    expected, expected_state, expected_trials = reference_crossing(pre, dt, ops, config)
    calls = []
    with counting_trials(calls):
        probe = config_probe(pre, dt, ops, config, state_modes(pre)) if given_modes else None
        elapsed, state = rupture.locate_crossing(pre, dt, ops, config, probe=probe)
    assert elapsed == expected
    # the step of dt and each trial of plain stepping are decided once, by a
    # bound or a full trial
    assert len(calls) == expected_trials + 1
    assert state.time == expected_state.time
    for got, want in zip(state_arrays(state), state_arrays(expected_state)):
        assert np.array_equal(got, want)


def test_bounds_decide_most_trials_of_a_fine_grid(ex1):
    # the first three events of ex1 at n = 8192 take about 30 full trials
    # without the bounds
    calls = []
    grid = build_grid(ex1, 8192)
    with counting_trials(calls):
        events, _ = rupture.run_with_rupture(ex1, Field(grid, np.full(8192, ex1.eta_a)), max_events=3)
    assert len(events) == 3
    assert sum(kind == "trial" for kind, _ in calls) <= 12


def test_coupled_crossings_take_every_trial_of_the_plain_bisection(ex3):
    # the bisection of each coupled crossing decides as many trials as the
    # plain bisection takes, and bounds decide most of them
    calls, expected, decided = [], [], []
    real_locate = rupture.locate_crossing

    def locate_crossing(pre, dt, ops, config, *, probe):
        expected.append(reference_crossing(pre, dt, ops, config, probe.modes)[2])
        before = len(calls)
        try:
            return real_locate(pre, dt, ops, config, probe=probe)
        finally:
            decided.append(len(calls) - before)

    grid = build_grid(ex3)
    start = CoupledState.from_thickness(Field(grid, np.full(grid.n, ex3.eta_a)))
    with counting_trials(calls), mock.patch.object(rupture, "locate_crossing", locate_crossing):
        events, _ = rupture.run_with_rupture(ex3, start, max_events=5)
    assert len(events) == 5
    assert decided == expected and sum(expected) > 0
    assert sum(kind == "trial" for kind, _ in calls) <= len(calls) // 4
