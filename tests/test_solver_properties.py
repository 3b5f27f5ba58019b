"""Properties of the cached cyclic solve and the implicit step over random
admissible step parameters ``(n, dt, sigma, alpha)`` on the unit domain."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rupturesim import solver
from rupturesim.config import ModelConfig
from rupturesim.solver import (
    Field,
    assemble_operators,
    build_grid,
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


@PROPERTY_SETTINGS
@given(step_parameters, seeds)
def test_repeat_solve_is_bit_identical_cold_or_warm(params, seed):
    n = params[0]
    diag, off = step_matrix(*params)
    rhs = random_rhs(n, seed)
    solver._cyclic_factorization.cache_clear()
    cold = solve_periodic_tridiagonal(diag, off, rhs)
    warm = solve_periodic_tridiagonal(diag, off, rhs)
    solver._cyclic_factorization.cache_clear()
    cold_again = solve_periodic_tridiagonal(diag, off, rhs)
    assert np.array_equal(cold, warm)
    assert np.array_equal(cold, cold_again)


@PROPERTY_SETTINGS
@given(step_parameters)
def test_cached_factors_are_read_only(params):
    n = params[0]
    factors, z, _, _ = solver._cyclic_factorization(n, *step_matrix(*params))
    for array in (*factors, z):
        with pytest.raises(ValueError):
            array[0] = 1


@PROPERTY_SETTINGS
@given(step_parameters, seeds)
def test_decoupled_step_preserves_order(params, seed):
    n, dt, sigma, alpha = params
    config = ModelConfig(
        omega=1.0,
        junctions=(0.1, 0.6, 0.9),
        jump_strengths=(1.0, 1.0, 1.0),
        forcing_offset=3.0,
        sigma1=sigma,
        sigma2=sigma,
        tau=1.0,
        alpha=alpha,
        eta_c=1e-3,
        eta_a=0.03,
        d=0.1,
    )
    ops = assemble_operators(build_grid(config, n), config)
    rng = np.random.default_rng(seed)
    low = rng.standard_normal(n)
    high = low + rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.5)
    stepped_low = step_decoupled(Field(ops.grid, low), dt, ops).values
    stepped_high = step_decoupled(Field(ops.grid, high), dt, ops).values
    # the exact step is monotone; allow only roundoff below it
    scale = max(np.max(np.abs(stepped_low)), np.max(np.abs(stepped_high)))
    assert np.min(stepped_high - stepped_low) >= -1e-13 * scale
