import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from rupturesim.cli import main, preset_config
from rupturesim.errors import DomainError, HorizonError, ModelViolationError, UnsupportedError
from rupturesim import periodic, rupture, solver, stationary
from rupturesim.periodic import (
    default_invariant_band,
    distinguished_interval,
    find_periodic,
    gradient_probe,
    in_invariant_set,
    poincare_map,
    splice,
    verify_periodic,
)
from rupturesim.solver import Field, build_grid, constant_field


@pytest.fixture(scope="module")
def ex1_profile(ex1):
    return stationary.solve_stationary(ex1)


@pytest.fixture(scope="module")
def ex1_converged(ex1):
    return find_periodic(ex1, fp_tol=1e-6, max_iter=45)


def test_distinguished_interval_is_the_long_one(ex1, ex1_profile, ex1_converged):
    assert distinguished_interval(ex1_profile, ex1) == 0
    assert ex1_converged.distinguished_interval == 0


def test_splice_overwrites_the_open_interval(ex1):
    grid = build_grid(ex1, 10)  # junctions 0.1 and 0.6 are nodes
    xi = constant_field(grid, 0.5)
    out = splice(xi, ex1, 0)
    assert out.values[1] == 0.5  # left junction node excluded
    assert np.all(out.values[2:6] == ex1.eta_a)
    assert np.all(out.values[6:] == 0.5)


def test_map_stays_in_the_long_interval_and_inside_bounds(ex1, ex1_profile):
    grid = build_grid(ex1)
    s_nodes = stationary.eval_stationary(ex1_profile, grid.nodes)
    xi = Field(grid, s_nodes + 0.01, 0.0)
    mapped, t_r = poincare_map(xi, ex1, ex1_profile)
    start = splice(xi, ex1, 0)
    report = rupture.rupture_time_bounds(ex1, start)
    assert report.t_lower <= t_r <= report.t_upper
    assert mapped.grid is grid


def test_map_is_a_fixed_point_after_convergence(ex1, ex1_profile, ex1_converged):
    fixed = ex1_converged.fixed_profile
    mapped, _ = poincare_map(fixed, ex1, ex1_profile)
    assert periodic.sup_diff_outside(mapped, fixed, ex1, 0) <= 1e-6
    twice, _ = poincare_map(mapped, ex1, ex1_profile)
    assert periodic.sup_diff_outside(twice, mapped, ex1, 0) <= 1e-6


def test_a_map_past_the_horizon_raises_the_horizon_error(monkeypatch, tmp_path, ex1, ex1_profile):
    # the map bounded its gap by this horizon itself, and a rupture past it
    # ended in a model violation, exit 1; the event loop's own bound on the
    # same gap raises HorizonError, exit 3
    def short(config, eta0):
        return 1e-3

    monkeypatch.setattr(rupture, "rupture_horizon", short)
    monkeypatch.setattr(periodic, "rupture_horizon", short, raising=False)
    xi = constant_field(build_grid(ex1), ex1.eta_a)
    with pytest.raises(HorizonError):
        poincare_map(xi, ex1, ex1_profile)
    assert main(["find-periodic", "--preset", "ex1", "--out", str(tmp_path / "run")]) == 3


def test_map_under_a_positive_forcing_integral_is_not_refused():
    # no mean-decay horizon applies, but the fixed point dips below eta_c,
    # so the run must still step to its rupture
    shifted = preset_config("ex1", overrides=(("forcing_offset", 2.97),))
    assert rupture.rupture_horizon(shifted, constant_field(build_grid(shifted), 1.0)) is None
    profile = stationary.solve_stationary(shifted)
    xi = Field(build_grid(shifted), stationary.eval_stationary(profile, build_grid(shifted).nodes))
    mapped, t_r = poincare_map(xi, shifted, profile)
    assert t_r > 0.0 and np.min(mapped.values) <= shifted.eta_c


def test_map_detects_delocalized_rupture(ex2):
    profile = stationary.solve_stationary(ex2)
    with pytest.raises(ModelViolationError):
        xi = constant_field(build_grid(ex2), ex2.eta_a)
        for _ in range(6):
            xi, _ = poincare_map(xi, ex2, profile)


def test_find_periodic_converges(ex1, ex1_converged):
    report = ex1_converged
    assert report.converged
    assert len(report.iterates) <= 40
    diffs = [d for _, _, d in report.iterates]
    assert diffs[-1] <= 1e-6
    assert all(b < a for a, b in zip(diffs[2:], diffs[3:]))
    assert report.period == pytest.approx(0.02097, abs=2e-4)


def test_orbit_search_builds_its_operators_once(ex1, ex1_converged):
    solver.assemble_operators.cache_clear()
    report = find_periodic(ex1, fp_tol=1e-6, max_iter=45)
    builds = solver.assemble_operators.cache_info().misses
    assert report.iterates == ex1_converged.iterates
    assert len(report.iterates) > 30 and builds == 1
    # the one bundle built is that of the configured grid
    solver.assemble_operators(build_grid(ex1), ex1)
    assert solver.assemble_operators.cache_info().misses == 1


def test_find_periodic_reaches_the_same_fixed_point_from_a_sine_start(ex1, ex1_converged):
    grid = build_grid(ex1)
    xi0 = Field(
        grid,
        ex1.eta_a + 0.5 * ex1.eta_a * np.sin(2.0 * np.pi * grid.nodes / ex1.omega),
        0.0,
    )
    report = find_periodic(ex1, xi0, fp_tol=1e-6, max_iter=45)
    assert report.converged
    gap = periodic.sup_diff_outside(
        report.fixed_profile, ex1_converged.fixed_profile, ex1, 0
    )
    assert gap <= 2e-6


def test_find_periodic_with_vacuous_tolerance(ex1):
    report = find_periodic(ex1, fp_tol=math.inf, max_iter=10)
    assert report.converged
    assert len(report.iterates) == 1
    assert report.period == report.iterates[0][1]


def test_verify_periodic_accepts_the_converged_orbit(ex1, ex1_converged):
    assert verify_periodic(ex1, ex1_converged.fixed_profile, 1e-5)


def test_verify_periodic_rejects_a_perturbed_profile(ex1, ex1_converged):
    # a smooth bump survives one period (a one-node spike would diffuse away);
    # the inter-event gaps stay close but the profile comparison fails
    tol = 1e-5
    bumped = ex1_converged.fixed_profile.copy()
    grid = bumped.grid
    bumped.values = bumped.values + 10.0 * tol * np.cos(2.0 * np.pi * grid.nodes / ex1.omega)
    start = splice(bumped, ex1, 0)
    start.time = 0.0
    events, _ = rupture.run_with_rupture(ex1, start, max_events=2)
    gap_one, gap_two = events[0].time, events[1].time - events[0].time
    assert abs(gap_two - gap_one) <= 2.0 * ex1.numerics.dt
    assert not verify_periodic(ex1, bumped, tol)


def test_verify_periodic_with_vacuous_tolerance(ex1, ex1_converged):
    assert verify_periodic(ex1, ex1_converged.fixed_profile, math.inf)


def test_search_and_verification_share_one_stationary_solve(monkeypatch, ex1):
    solves = []
    real = stationary.solve_stationary

    def counted(config):
        solves.append(config)
        return real(config)

    monkeypatch.setattr(stationary, "solve_stationary", counted)
    periodic._stationary_basis.cache_clear()
    report = find_periodic(ex1, fp_tol=1e-3, max_iter=3)
    verify_periodic(ex1, report.fixed_profile, math.inf)
    find_periodic(preset_config("ex1"), max_iter=1)  # an equal configuration
    assert solves == [ex1]
    # the one profile is shared by every caller, so it cannot be written to
    profile, index = periodic._stationary_basis(ex1)
    assert index == report.distinguished_interval == 0
    for array in (profile.junctions, profile.lengths, profile.coeffs):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


@pytest.mark.parametrize("preset", ["ex1", "ex2"])
def test_an_interval_that_holds_every_node_is_refused(preset):
    # every junction lies within the first grid spacing, so the distinguished
    # interval holds all nodes and no profile lies outside it to compare
    config = preset_config(preset, overrides=(("omega", 1e12),))
    grid = build_grid(config)
    with pytest.raises(DomainError, match="holds every node"):
        find_periodic(config, max_iter=1)
    with pytest.raises(DomainError, match="holds every node"):
        verify_periodic(config, constant_field(grid, config.eta_a), 1e-5)


def test_the_package_loads_periodic_exports_on_first_use():
    import rupturesim

    for name in ("ConvergenceReport", "GradientProbeReport", "find_periodic",
                 "gradient_probe", "poincare_map", "verify_periodic"):
        assert getattr(rupturesim, name) is getattr(periodic, name)
    assert all(hasattr(rupturesim, name) for name in rupturesim.__all__)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        rupturesim.no_such_name


def test_iterates_stay_in_the_invariant_band(ex1, ex1_profile):
    band = default_invariant_band(ex1_profile, ex1)
    s_min = min(lo for lo, _ in stationary.interval_extrema(ex1_profile))
    assert s_min + band > ex1.eta_a
    grid = build_grid(ex1)
    s_nodes = stationary.eval_stationary(ex1_profile, grid.nodes)
    xi = Field(grid, s_nodes + 0.005, 0.0)
    assert in_invariant_set(xi, ex1_profile, ex1, 0, band)
    for _ in range(6):
        xi, _ = poincare_map(xi, ex1, ex1_profile)
        assert in_invariant_set(xi, ex1_profile, ex1, 0, band)


def test_coupled_search_reports_non_convergence(ex3):
    report = find_periodic(ex3, fp_tol=1e-6, max_iter=10)
    assert not report.converged
    assert len(report.iterates) == 10
    assert all(d > 1e-6 for _, _, d in report.iterates)


def test_verify_periodic_refuses_coupled_mode(ex3):
    # the fixed profile is a thickness alone: no height to start a coupled
    # run from, so the two-period check is not defined there
    report = find_periodic(ex3, fp_tol=1.0, max_iter=3)
    assert report.converged
    with pytest.raises(UnsupportedError, match="decoupled mode only"):
        verify_periodic(ex3, report.fixed_profile, 1.0)


def test_gradient_probe_zero_data_zero_constants():
    from rupturesim.config import ModelConfig

    cfg = ModelConfig(
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
    grid = build_grid(cfg, 64)
    report = gradient_probe(cfg, constant_field(grid, 1.0), [0.01, 0.1])
    assert report.c0 == 0.0 and report.c1 == 0.0
    assert all(g == pytest.approx(0.0, abs=1e-12) for _, g, _ in report.samples)


def test_gradient_probe_bound_holds_at_every_sample(ex1):
    grid = build_grid(ex1, 512)
    report = gradient_probe(ex1, constant_field(grid, ex1.eta_a), [1e-3, 1e-2, 1e-1, 1.0])
    for _, grad, bound in report.samples:
        assert grad <= bound * (1.0 + 1e-9)
    assert math.isfinite(report.c0) and math.isfinite(report.c1)


def test_gradient_probe_homogeneous_part_is_linear(ex1):
    grid = build_grid(ex1, 512)
    profile = stationary.solve_stationary(ex1)
    s_nodes = stationary.eval_stationary(profile, grid.nodes)
    bump = 0.01 * np.sin(4.0 * np.pi * grid.nodes)
    gamma = 2.5
    ops = solver.assemble_operators(grid, ex1)
    t = 0.05
    base = solver.evolve(Field(grid, s_nodes.copy(), 0.0), t, ex1.numerics.dt, ops)
    one = solver.evolve(Field(grid, s_nodes + bump, 0.0), t, ex1.numerics.dt, ops)
    two = solver.evolve(Field(grid, s_nodes + gamma * bump, 0.0), t, ex1.numerics.dt, ops)
    lhs = two.values - base.values
    rhs = gamma * (one.values - base.values)
    assert np.max(np.abs(lhs - rhs)) <= 1e-8 * np.max(np.abs(rhs))


def test_gradient_probe_rejects_coupled_mode(ex3):
    grid = build_grid(ex3, 64)
    with pytest.raises(UnsupportedError):
        gradient_probe(ex3, constant_field(grid, 1.0), [0.1])


def fit_samples(size):
    times = st.lists(st.floats(-4.0, 1.0).map(lambda e: 10.0**e), min_size=size, max_size=size)
    # linprog counts a violation below its 1e-7 feasibility tolerance as met,
    # so it cannot resolve gradients of that size; exact zeros stay in
    gradient = st.one_of(st.just(0.0), st.floats(-1.0, 10.0).filter(lambda g: abs(g) >= 1e-6))
    grads = st.lists(gradient, min_size=size, max_size=size)
    return st.tuples(times, grads)


budgets = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 6).flatmap(fit_samples), budgets, budgets)
@example(([1e-3, 1e-2, 1e-1, 1.0], [0.49, 0.57, 0.78, 0.79]), 0.03, 3.0)
@example(([0.25, 4.0], [2.0, 1.0]), 1.0, 1.0)  # optimum where two constraints cross
@example(([0.01, 0.1], [-0.5, 0.0]), 1.0, 0.0)
@example(([0.01, 0.1], [2.0, 1.0]), 1.0, 0.0)
@example(([0.01, 0.1], [1e-15, 0.0]), 0.0, 0.0)
@example(([0.01, 0.1], [2.0, 1.0]), 0.0, 0.0)
def test_bound_fit_matches_the_linear_program(samples, eta0_sup, strength_sum):
    times, grads = (np.array(values) for values in samples)
    u = eta0_sup / np.sqrt(times)
    v = np.full_like(times, strength_sum)
    if strength_sum == 0.0 and eta0_sup == 0.0 and grads.max() > 1e-12 * max(1.0, grads.max()):
        with pytest.raises(UnsupportedError):
            periodic._fit_bound_constants(times, grads, eta0_sup, strength_sum)
        return
    c0, c1 = periodic._fit_bound_constants(times, grads, eta0_sup, strength_sum)
    assert c0 >= 0.0 and c1 >= 0.0
    bound = c0 * u + c1 * v
    assert np.all(bound - grads >= -1e-12 * max(1.0, np.abs(grads).max(), bound.max()))
    reference = linprog(
        c=[1.0, 1.0],
        A_ub=np.column_stack([-u, -v]),
        b_ub=-grads,
        bounds=[(0.0, None), (0.0, None)],
        method="highs",
    )
    assert reference.success
    assert c0 + c1 == pytest.approx(reference.fun, rel=1e-12, abs=0.0)
