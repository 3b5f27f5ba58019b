import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rupturesim.config import ModelConfig, config_from_dict
from rupturesim.errors import DomainError, LinearSolveError, UnsupportedError
from rupturesim import solver, stationary
from rupturesim.solver import (
    CoupledState,
    Field,
    advance,
    assemble_operators,
    build_grid,
    constant_field,
    evolve,
    fourier_reference,
    solve_periodic_tridiagonal,
)


def plain_config(**over):
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


def test_build_grid_spacing():
    grid = build_grid(plain_config(), 10)
    assert grid.dx == 0.1
    assert np.allclose(grid.nodes, np.arange(10) * 0.1)
    grid2 = build_grid(plain_config(omega=2.0, junctions=(1.0,)), 8)
    assert grid2.dx == 0.25


def test_build_grid_rejects_tiny_grids():
    with pytest.raises(DomainError):
        build_grid(plain_config(), 3)


@pytest.mark.parametrize("omega", [1e300, 1e-154, 1e-160])
def test_build_grid_rejects_a_spacing_whose_square_overflows_or_vanishes(omega):
    # dx**2 overflows, or 1/dx**2 does (dx**2 subnormal or 0)
    with pytest.raises(DomainError, match="grid spacing"):
        build_grid(plain_config(omega=omega, junctions=(0.0,)), 1024)


def test_build_grid_default_size(ex1):
    assert build_grid(ex1).n == 1024


def test_point_load_on_a_node():
    cfg = plain_config(junctions=(0.5,), jump_strengths=(2.0,))
    grid = build_grid(cfg, 10)
    ops = assemble_operators(grid, cfg)
    assert ops.load[5] == pytest.approx(2.0 / grid.dx)
    assert np.count_nonzero(ops.load) == 1


def test_point_load_at_a_midpoint():
    cfg = plain_config(junctions=(0.55,), jump_strengths=(2.0,))
    grid = build_grid(cfg, 10)
    ops = assemble_operators(grid, cfg)
    assert ops.load[5] == pytest.approx(1.0 / grid.dx)
    assert ops.load[6] == pytest.approx(1.0 / grid.dx)


def test_load_preserves_total_strength(ex1):
    grid = build_grid(ex1, 512)
    ops = assemble_operators(grid, ex1)
    total = np.sum(ops.load + ex1.forcing_offset) * grid.dx
    assert total == pytest.approx(3.0, rel=1e-12)


def test_cyclic_solve_against_dense_oracle():
    rng = np.random.default_rng(5)
    for n in (4, 7, 64):
        # a step matrix shift*I + stiffness*(-1, 2, -1) with a diagonal of
        # about 3 to 6 and off-diagonals of -0.1 to -1
        cfg = plain_config(sigma2=rng.uniform(0.1, 1.0) / n**2, jump_strengths=(1.0,))
        ops = assemble_operators(build_grid(cfg, n), cfg)
        dt = 1.0 / (2.0 + rng.uniform(0.0, 1.0))
        shift, stiffness = ops.thickness_matrix(dt)
        matrix = np.zeros((n, n))
        for i in range(n):
            matrix[i, i] = shift + 2.0 * stiffness
            matrix[i, (i + 1) % n] = -stiffness
            matrix[i, (i - 1) % n] = -stiffness
        start = Field(ops.grid, rng.standard_normal(n))
        got = advance(start, dt, ops).values
        expected = np.linalg.solve(matrix, start.values / dt + ops.load)
        assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("n", [8192, 16384])
def test_cyclic_solve_check_is_grid_independent(n):
    # the ex1 step matrix at dt = 1e-4; the backward error of an exact solve
    # stays near roundoff however stiff the fine grid makes the matrix
    cfg = plain_config()  # sigma = alpha = 1, no load
    ops = assemble_operators(build_grid(cfg, n), cfg)
    start = Field(ops.grid, np.random.default_rng(n).uniform(size=n))
    x = advance(start, 1.0e-4, ops).values
    assert np.all(np.isfinite(x))


def test_stiff_step_matches_the_mode_division(ex1):
    # the eigenvalues were formed as diag + off*(2 - s_k), which cancels
    # 2*sigma/dx^2 and cost this step 3.6e-14 of the scale; formed as
    # shift + stiffness*s_k they add two nonnegative terms
    cfg = replace(ex1, sigma2=100.0)
    grid = build_grid(cfg, 8192)
    ops = assemble_operators(grid, cfg)
    dt = cfg.numerics.dt
    x = np.random.default_rng(7).uniform(0.0, 0.05, grid.n)
    out = advance(Field(grid, x, 0.0), dt, ops).values
    exact = np.fft.irfft((np.fft.rfft(x) + dt * ops.load_modes) / (1.0 + dt * ops.symbol), grid.n)
    scale = max(np.max(np.abs(x)), dt * np.max(np.abs(ops.load)))
    assert np.max(np.abs(out - exact)) <= 1e-15 * scale


def test_implicit_step_fixed_point(ex1):
    grid = build_grid(ex1, 256)
    ops = assemble_operators(grid, ex1)
    dx2 = grid.dx**2
    # discrete steady state of the same operator, checked as its solve
    steady = solve_periodic_tridiagonal(ops.alpha, ops.sigma / dx2, ops.load, ops.fixed_point)
    state = Field(grid, steady, 0.0)
    out = advance(state, 0.05, ops)
    assert np.max(np.abs(out.values - steady)) < 1e-12


def test_implicit_step_constant_decay():
    cfg = plain_config()
    grid = build_grid(cfg, 64)
    ops = assemble_operators(grid, cfg)
    out = advance(constant_field(grid, 1.0), 0.1, ops)
    assert np.max(np.abs(out.values - 1.0 / 1.1)) < 1e-14
    assert out.time == pytest.approx(0.1)


def test_step_preserves_order():
    cfg = plain_config(junctions=(0.3,), jump_strengths=(1.0,), forcing_offset=1.0)
    grid = build_grid(cfg, 128)
    ops = assemble_operators(grid, cfg)
    rng = np.random.default_rng(17)
    for _ in range(20):
        low = Field(grid, rng.standard_normal(grid.n), 0.0)
        high = Field(grid, low.values + rng.uniform(0.0, 1.0, grid.n), 0.0)
        low = advance(low, 1e-3, ops)
        high = advance(high, 1e-3, ops)
        assert np.min(high.values - low.values) >= -1e-12


def test_coupled_step_constant_modes():
    cfg = plain_config(mode="coupled")
    grid = build_grid(cfg, 64)
    ops = assemble_operators(grid, cfg)
    out = advance(CoupledState(constant_field(grid, 0.0), constant_field(grid, 1.0)), 0.1, ops)
    assert np.max(np.abs(out.h.values)) < 1e-14
    assert np.max(np.abs(out.zeta.values - 1.0 / 1.1)) < 1e-14


def test_coupled_matches_decoupled_when_rates_agree(ex1, ex3):
    # with sigma1 = sigma2 = tau the thickness of the pair obeys the reduced
    # equation step for step; the relaxation source cancels exactly
    cfg = config_from_dict(
        {
            "omega": 1.0,
            "junctions": [0.1, 0.6, 0.9],
            "jump_strengths": [1.0, 1.0, 1.0],
            "forcing_offset": 3.0,
            "sigma1": 1.0,
            "sigma2": 1.0,
            "tau": 1.0,
            "alpha": 1.0,
            "eta_c": 0.03e-12,
            "eta_a": 0.03,
            "d": 0.1,
            "mode": "coupled",
        }
    )
    grid = build_grid(cfg, 256)
    ops = assemble_operators(grid, cfg)
    rng = np.random.default_rng(23)
    eta = Field(grid, 0.05 + 0.01 * rng.standard_normal(grid.n), 0.0)
    h = Field(grid, 0.3 * np.sin(2 * np.pi * grid.nodes), 0.0)
    pair = CoupledState(h, Field(grid, h.values + eta.values, 0.0))
    dt = 1e-3
    for _ in range(50):
        pair = advance(pair, dt, ops)
        eta = advance(eta, dt, ops)
    assert np.max(np.abs((pair.zeta.values - pair.h.values) - eta.values)) < 1e-10


def test_height_mass_is_conserved(ex3):
    grid = build_grid(ex3, 512)
    ops = assemble_operators(grid, ex3)
    rng = np.random.default_rng(31)
    h = Field(grid, rng.standard_normal(grid.n), 0.0)
    pair = CoupledState(h, Field(grid, h.values + 0.05, 0.0))
    before = np.sum(h.values) * grid.dx
    for _ in range(100):
        pair = advance(pair, 1e-3, ops)
    after = np.sum(pair.h.values) * grid.dx
    assert abs(after - before) < 1e-10


def test_height_matrix_is_the_height_step(ex3):
    grid = build_grid(ex3, 64)
    ops = assemble_operators(grid, ex3)
    shift, stiffness = ops.height_matrix(1e-3)
    diag, off = shift + 2.0 * stiffness, -stiffness
    assert diag == 1e3 + 2.0 * ops.sigma_h / grid.dx**2
    assert off == -ops.sigma_h / grid.dx**2
    with pytest.raises(ValueError):
        ops.height_matrix(0.0)


def coupled_start(config, n, seed=5):
    grid = build_grid(config, n)
    rng = np.random.default_rng(seed)
    return CoupledState.from_thickness(Field(grid, 0.05 + 0.01 * rng.random(n)))


def test_coupled_batch_guards(ex3, monkeypatch):
    start = coupled_start(ex3, 64)
    ops = assemble_operators(start.h.grid, ex3)
    with pytest.raises(ValueError):
        solver.jump_coupled(start, 0, 1e-4, ops, ex3.eta_c)
    # the state handed out passes the solve's backward-error check, which no
    # residual passes at a negative roundoff allowance
    monkeypatch.setattr(solver, "_ROUNDOFF", -1.0)
    with pytest.raises(LinearSolveError):
        solver.jump_coupled(start, 4, 1e-4, ops, ex3.eta_c)
    taken, same = solver.jump_coupled(start, 4, 1e-4, ops, 1.0)  # the first step crosses
    assert taken == 0 and same is start
    assert np.array_equal(same.modes, np.fft.rfft(np.stack((start.h.values, start.zeta.values))))
    monkeypatch.undo()
    start = start.copy()  # the state's values are not changed in place once read
    start.zeta.values[7] = np.nan
    with pytest.raises(LinearSolveError):
        solver.jump_coupled(start, 4, 1e-4, ops, ex3.eta_c)


def test_coupled_batch_peak_memory(ex3):
    # the benchmark bounds peak RSS at 5 %; a call of 16 steps peaks near
    # 0.55 MiB here, mostly the buffers of one chunk
    start = coupled_start(ex3, 1024)
    ops = assemble_operators(start.h.grid, ex3)
    dt = ex3.numerics.dt
    solver.jump_coupled(start, 16, dt, ops, ex3.eta_c)  # fill the caches
    tracemalloc.start()
    try:
        taken, _ = solver.jump_coupled(start, 16, dt, ops, ex3.eta_c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert taken == 16
    assert peak < 1 << 20


def test_coupled_gap_peak_memory_does_not_grow_with_its_length(ex3):
    start = coupled_start(ex3, 1024)
    ops = assemble_operators(start.h.grid, ex3)
    dt, floor = ex3.numerics.dt, -1.0e9  # a floor that no step reaches
    solver.jump_coupled(start, 16, dt, ops, floor)  # fill the caches
    tracemalloc.start()
    try:
        taken, _ = solver.jump_coupled(start, 4096, dt, ops, floor)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert taken == 4096
    assert peak < 1 << 20


# (budget, step that crosses): the last row of the first chunk and the first
# row of the second, the second row of the first chunk and of the second,
# which hand off from a chunk base, budgets that end on chunk boundaries and
# one that ends in a partial chunk
@pytest.mark.parametrize(
    "budget, crossing",
    [(40, 16), (40, 17), (40, 2), (40, 18), (1, None), (16, None), (20, None), (32, None)],
)
def test_coupled_gap_equals_stepping_across_chunk_boundaries(ex3, budget, crossing):
    grid = build_grid(ex3, 64)
    ops = assemble_operators(grid, ex3)
    dt = ex3.numerics.dt
    states = [CoupledState.from_thickness(constant_field(grid, ex3.eta_a))]
    for _ in range(budget):
        states.append(advance(states[-1], dt, ops))
    lows = [float(np.min(state.eta.values)) for state in states]
    assert all(np.diff(lows) < 0.0)  # the flat start thins at every step
    floor = ex3.eta_c if crossing is None else 0.5 * (lows[crossing - 1] + lows[crossing])
    taken, jumped = solver.jump_coupled(states[0], budget, dt, ops, floor)
    assert taken == (budget if crossing is None else crossing - 1)
    # the modes the state keeps are those it was transformed back from
    back = np.fft.irfft(jumped.modes, grid.n)
    assert np.array_equal(back, np.stack((jumped.h.values, jumped.zeta.values)))
    stepped = states[taken]
    assert jumped.time == stepped.time
    scale = max(np.max(np.abs(stepped.h.values)), np.max(np.abs(stepped.zeta.values)))
    assert np.max(np.abs(jumped.h.values - stepped.h.values)) <= 1e-12 * scale
    assert np.max(np.abs(jumped.zeta.values - stepped.zeta.values)) <= 1e-12 * scale


def test_coupled_gap_hands_out_the_minimum_it_tested(ex3, monkeypatch):
    grid = build_grid(ex3, 64)
    ops = assemble_operators(grid, ex3)
    start = CoupledState.from_thickness(constant_field(grid, ex3.eta_a))
    tables = solver.Operators.coupled_tables

    def skewed(self, dt):
        rows, heights = tables(self, dt)
        return rows * (1.0 + 1e-9), heights

    monkeypatch.setattr(solver.Operators, "coupled_tables", skewed)
    with pytest.raises(LinearSolveError, match="tested"):
        solver.jump_coupled(start, 20, ex3.numerics.dt, ops, ex3.eta_c)


def test_coupled_tables_are_the_float64_step_recursion(ex3):
    # each chunk of a gap reuses these coefficients: they are the coupled
    # step itself on unit inputs, in the float64 arithmetic of every other
    # step, whatever extended precision the platform offers, with the load's
    # columns then multiplied by the height load's modes
    grid = build_grid(ex3, 64)
    ops = assemble_operators(grid, ex3)
    dt = ex3.numerics.dt
    rows, heights = ops.coupled_tables(dt)
    size = 2 * (grid.n // 2 + 1)
    one, zero = np.ones(size), np.zeros(size)
    load = ops.height_load_modes.view(np.float64)
    for row, (z, h, unit) in enumerate([(one, zero, zero), (zero, one, zero), (zero, zero, one)]):
        pair = np.stack((h, z))
        for j in range(solver._CHUNK):
            pair = solver._step_modes(pair, dt, ops, unit)
            thickness = pair[1] - pair[0]
            assert np.array_equal(rows[row, j], thickness * load if row == 2 else thickness)
            if row == 0:  # the height does not depend on zeta
                assert not pair[0].any()
            else:
                assert np.array_equal(heights[row - 1, j], pair[0] * load if row == 2 else pair[0])


def test_evolve_to_current_time_is_identity():
    cfg = plain_config()
    grid = build_grid(cfg, 32)
    ops = assemble_operators(grid, cfg)
    state = constant_field(grid, 1.0)
    out = evolve(state, 0.0, 1e-2, ops)
    assert out.time == 0.0
    assert np.array_equal(out.values, state.values)


@pytest.mark.parametrize("t_end", [math.nan, math.inf])
def test_evolve_refuses_a_non_finite_end_time(t_end):
    # inf stepped forever, and nan returned the state stamped with time nan
    cfg = plain_config()
    grid = build_grid(cfg, 32)
    ops = assemble_operators(grid, cfg)
    with pytest.raises(ValueError, match="t_end must be finite"):
        evolve(constant_field(grid, 1.0), t_end, 1e-2, ops)


def test_evolve_composes():
    cfg = plain_config(junctions=(0.25,), jump_strengths=(1.0,), forcing_offset=0.5)
    grid = build_grid(cfg, 64)
    ops = assemble_operators(grid, cfg)
    state = constant_field(grid, 0.7)
    dt = 1e-3
    once = evolve(state, 2 * dt, dt, ops)
    twice = evolve(evolve(state, dt, dt, ops), 2 * dt, dt, ops)
    assert np.max(np.abs(once.values - twice.values)) < 1e-13


def test_evolve_lands_a_coupled_state_on_t_end(ex3):
    grid = build_grid(ex3, 64)
    ops = assemble_operators(grid, ex3)
    rng = np.random.default_rng(7)
    start = CoupledState.from_thickness(Field(grid, 0.05 + 0.01 * rng.random(grid.n)))
    dt = 2.0**-10  # binary fractions, so the times sum exactly
    t_end = 10.5 * dt
    evolved = evolve(start.copy(), t_end, dt, ops)
    assert evolved.h.time == evolved.zeta.time == evolved.time == t_end
    by_hand = start
    for _ in range(10):
        by_hand = advance(by_hand, dt, ops)
    by_hand = advance(by_hand, 0.5 * dt, ops)
    assert np.array_equal(evolved.h.values, by_hand.h.values)
    assert np.array_equal(evolved.zeta.values, by_hand.zeta.values)


def test_both_state_kinds_expose_thickness_and_time(ex3):
    grid = build_grid(ex3, 16)
    field = constant_field(grid, 0.2, time=0.5)
    assert field.eta is field
    state = CoupledState.from_thickness(field)
    assert np.array_equal(state.eta.values, field.values)
    state.time = 0.25
    assert state.h.time == state.zeta.time == state.eta.time == 0.25


def test_fixed_point_needs_alpha_and_is_read_only(ex1):
    grid = build_grid(ex1, 64)
    ops = assemble_operators(grid, ex1)
    for table in (ops.fixed_point, ops.symbol):
        with pytest.raises(ValueError):
            table[0] = 1.0
    with pytest.raises(UnsupportedError):
        assemble_operators(grid, replace(ex1, alpha=0.0)).fixed_point


def test_evolve_constant_decay_matches_exponential():
    cfg = plain_config()
    grid = build_grid(cfg, 32)
    ops = assemble_operators(grid, cfg)
    out = evolve(constant_field(grid, 1.0), 1.0, 1e-3, ops)
    assert np.max(np.abs(out.values - np.exp(-1.0))) < 1e-3


def test_reference_fixes_the_stationary_profile(ex1):
    grid = build_grid(ex1, 512)
    profile = stationary.solve_stationary(ex1)
    s_nodes = stationary.eval_stationary(profile, grid.nodes)
    out = fourier_reference(ex1, Field(grid, s_nodes.copy(), 0.0), 0.7)
    assert np.max(np.abs(out.values - s_nodes)) < 1e-10


def test_reference_takes_the_stationary_profile_once_per_grid(ex1):
    grid = build_grid(ex1, 256)
    eta0 = constant_field(grid, ex1.eta_a)
    first = fourier_reference(ex1, eta0, 0.01)
    cached = solver._stationary_nodes(ex1, grid.n)
    assert not cached.flags.writeable
    direct = stationary.eval_stationary(stationary.solve_stationary(ex1), grid.nodes)
    assert np.array_equal(cached, direct)
    assert np.array_equal(fourier_reference(ex1, eta0, 0.01).values, first.values)
    assert solver._stationary_nodes(ex1, grid.n) is cached


def test_reference_decays_one_mode_exactly(ex1):
    grid = build_grid(ex1, 512)
    profile = stationary.solve_stationary(ex1)
    s_nodes = stationary.eval_stationary(profile, grid.nodes)
    mode = np.cos(2 * np.pi * grid.nodes / ex1.omega)
    t = 0.17
    out = fourier_reference(ex1, Field(grid, s_nodes + mode, 0.0), t)
    rate = ex1.sigma2 * (2 * np.pi / ex1.omega) ** 2 + ex1.alpha
    expected = s_nodes + np.exp(-rate * t) * mode
    assert np.max(np.abs(out.values - expected)) < 1e-10


def test_reference_at_time_zero_reproduces_data(ex1):
    grid = build_grid(ex1, 256)
    rng = np.random.default_rng(41)
    eta0 = Field(grid, 0.03 + 0.001 * rng.standard_normal(grid.n), 0.0)
    out = fourier_reference(ex1, eta0, 0.0)
    assert np.max(np.abs(out.values - eta0.values)) < 1e-10


def test_reference_rejects_unsupported_regimes(ex3):
    grid = build_grid(ex3, 64)
    with pytest.raises(UnsupportedError):
        fourier_reference(ex3, constant_field(grid, 1.0), 0.1)
    cfg0 = plain_config(alpha=0.0)
    with pytest.raises(UnsupportedError):
        fourier_reference(cfg0, constant_field(build_grid(cfg0, 64), 1.0), 0.1)


def test_discrete_mean_decay_law(ex1):
    grid = build_grid(ex1, 256)
    ops = assemble_operators(grid, ex1)
    state = constant_field(grid, ex1.eta_a)
    dt = 1e-3
    for _ in range(200):
        new = advance(state, dt, ops)
        lhs = np.mean(new.values) * (1.0 + ex1.alpha * dt)
        rhs = np.mean(state.values)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
        state = new


def test_translation_equivariance_by_one_node(ex1):
    grid = build_grid(ex1, 512)
    rolled_cfg = config_from_dict(
        {
            "omega": ex1.omega,
            "junctions": [a + grid.dx for a in ex1.junctions],
            "jump_strengths": list(ex1.jump_strengths),
            "forcing_offset": ex1.forcing_offset,
            "sigma1": ex1.sigma1,
            "sigma2": ex1.sigma2,
            "tau": ex1.tau,
            "alpha": ex1.alpha,
            "eta_c": ex1.eta_c,
            "eta_a": ex1.eta_a,
            "d": ex1.d,
            "mode": ex1.mode,
        }
    )
    ops = assemble_operators(grid, ex1)
    ops_rolled = assemble_operators(grid, rolled_cfg)
    rng = np.random.default_rng(53)
    values = rng.standard_normal(grid.n)
    out = advance(Field(grid, values, 0.0), 1e-3, ops)
    out_rolled = advance(Field(grid, np.roll(values, 1), 0.0), 1e-3, ops_rolled)
    assert np.max(np.abs(np.roll(out.values, 1) - out_rolled.values)) < 1e-12


def test_system_matrix_is_strictly_diagonally_dominant(ex1):
    grid = build_grid(ex1, 128)
    ops = assemble_operators(grid, ex1)
    dt = 1e-4
    shift, stiffness = ops.thickness_matrix(dt)
    diag, off = shift + 2.0 * stiffness, -stiffness
    assert diag > 0.0 and off <= 0.0
    assert diag - 2.0 * abs(off) == pytest.approx(1.0 / dt + ops.alpha, rel=1e-12)


@pytest.mark.parametrize("tau", [1e-150, 1e-152, 1e-159, 1e-20])
def test_a_height_load_balanced_only_up_to_roundoff_is_refused(ex3, tau):
    # the forcing of ex3 is balanced, but divided by a small tau the height
    # load's sum keeps a roundoff residue, which moved the thickness by up to
    # 4e132 per step; the preset's own sum is exactly 0, so it is not refused
    grid = build_grid(ex3, 1024)
    assert assemble_operators(grid, ex3).height_load_modes[0] == 0.0
    with pytest.raises(DomainError, match="within the roundoff of its sum"):
        assemble_operators(grid, replace(ex3, tau=tau))
