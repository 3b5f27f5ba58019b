import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from rupturesim.config import ModelConfig, config_from_dict, effective_parameters
from rupturesim.errors import NoSolutionError, UnsupportedError
from rupturesim import stationary


def single_junction_config(**over):
    kwargs = dict(
        omega=1.0,
        junctions=(0.0,),
        jump_strengths=(1.0,),
        forcing_offset=1.0,
        sigma1=1.0,
        sigma2=1.0,
        tau=1.0,
        alpha=1.0,
        eta_c=1e-6,
        eta_a=1e-3,
        d=0.1,
    )
    kwargs.update(over)
    return ModelConfig(**kwargs)


def fd_stationary(cfg, n=8192):
    """Brute-force periodic finite-difference solve of the stationary ODE."""
    sigma, strengths, offset = effective_parameters(cfg)
    dx = cfg.omega / n
    x = np.arange(n) * dx
    main = np.full(n, -2.0 * sigma / dx**2 - cfg.alpha)
    off = np.full(n - 1, sigma / dx**2)
    matrix = sp.diags([off, main, off], [-1, 0, 1], format="lil")
    matrix[0, -1] = sigma / dx**2
    matrix[-1, 0] = sigma / dx**2
    rhs = np.full(n, offset)
    for a, c in zip(cfg.junctions, strengths):
        pos = (a % cfg.omega) / dx
        j = int(np.floor(pos))
        frac = pos - j
        rhs[j % n] -= c * (1.0 - frac) / dx
        rhs[(j + 1) % n] -= c * frac / dx
    return x, spla.spsolve(sp.csc_matrix(matrix), rhs)


def test_single_junction_closed_form():
    profile = stationary.solve_stationary(single_junction_config())
    xs = np.linspace(0.0, 1.0, 1001)
    exact = -1.0 + np.cosh(xs - 0.5) / (2.0 * np.sinh(0.5))
    assert np.max(np.abs(stationary.eval_stationary(profile, xs) - exact)) < 1e-12


def test_zero_forcing_profile_is_zero():
    cfg = single_junction_config(jump_strengths=(0.0,), forcing_offset=0.0)
    profile = stationary.solve_stationary(cfg)
    assert np.max(np.abs(profile.coeffs)) < 1e-14
    assert stationary.eval_stationary(profile, 0.37) == pytest.approx(0.0, abs=1e-14)


def test_translation_equivariance(ex1):
    shift = 0.177
    pairs = sorted(
        ((a + shift) % ex1.omega, c) for a, c in zip(ex1.junctions, ex1.jump_strengths)
    )
    shifted = ModelConfig(
        **{
            **{f: getattr(ex1, f) for f in (
                "omega", "forcing_offset", "sigma1", "sigma2",
                "tau", "alpha", "eta_c", "eta_a", "d", "mode", "reduction_case",
            )},
            "junctions": tuple(a for a, _ in pairs),
            "jump_strengths": tuple(c for _, c in pairs),
        }
    )
    base = stationary.solve_stationary(ex1)
    moved = stationary.solve_stationary(shifted)
    xs = np.linspace(0.0, ex1.omega, 777, endpoint=False)
    a = stationary.eval_stationary(base, xs)
    b = stationary.eval_stationary(moved, (xs + shift) % ex1.omega)
    assert np.max(np.abs(a - b)) < 1e-10


def test_quadratic_branch_closed_form():
    cfg = single_junction_config(alpha=0.0)
    profile = stationary.solve_stationary(cfg)
    xs = np.linspace(0.0, 1.0, 501)
    exact = xs**2 / 2.0 - xs / 2.0 + 1.0 / 12.0
    assert np.max(np.abs(stationary.eval_stationary(profile, xs) - exact)) < 1e-12
    assert stationary.junction_slope_jump(profile, 0) == pytest.approx(-1.0, abs=1e-12)
    assert stationary.profile_mean(profile) == pytest.approx(0.0, abs=1e-14)


def test_quadratic_branch_requires_mass_balance():
    cfg = single_junction_config(alpha=0.0, forcing_offset=1.5)
    with pytest.raises(NoSolutionError):
        stationary.solve_stationary(cfg)


def test_quadratic_branch_zero_forcing():
    cfg = single_junction_config(alpha=0.0, jump_strengths=(0.0,), forcing_offset=0.0)
    profile = stationary.solve_stationary(cfg)
    xs = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(stationary.eval_stationary(profile, xs))) < 1e-14


@pytest.mark.parametrize(
    "junctions, strengths",
    [((0.1, 0.6, 0.9), (1.0, 1.0, 1.0)), ((0.1, 0.3, 0.9), (0.5, 1.0, 1.5))],
    ids=["ex1", "uneven"],
)
def test_quadratic_branch_with_several_junctions(ex1, junctions, strengths):
    # offset 3 is the mass-conserving choice for both strength sets
    cfg = replace(ex1, alpha=0.0, junctions=junctions, jump_strengths=strengths)
    sigma, scaled, offset = effective_parameters(cfg)
    profile = stationary.solve_stationary(cfg)
    k = len(junctions)
    for j, c in enumerate(scaled):
        assert stationary.junction_slope_jump(profile, j) == pytest.approx(-c / sigma, abs=1e-13)
    # continuous at every junction: the start of interval j is the end of j - 1
    left = (np.arange(k) - 1) % k
    ends, _, _ = stationary._pieces(profile, left, profile.lengths[left])
    starts, _, _ = stationary._pieces(profile, np.arange(k), np.zeros(k))
    assert np.max(np.abs(starts - ends)) <= 1e-14
    xs = np.random.default_rng(5).uniform(0.0, cfg.omega, 1000)
    xs = xs[np.min(np.abs(xs[:, None] - np.array(junctions)[None, :]), axis=1) > 1e-6]
    assert np.max(np.abs(stationary.ode_residual(profile, xs))) <= 1e-12 * (1.0 + abs(offset))
    assert stationary.profile_mean(profile) == pytest.approx(0.0, abs=1e-14)
    bounds = list(junctions) + [junctions[0] + cfg.omega]
    interior = 0
    for j, (lo, hi) in enumerate(stationary.interval_extrema(profile)):
        xs = np.linspace(bounds[j], bounds[j + 1], 20001) % cfg.omega
        values = stationary.eval_stationary(profile, xs)
        # exact extrema bound every sample, and sampling finds them to 1e-8
        assert lo <= np.min(values) + 1e-14 and np.max(values) <= hi + 1e-14
        assert lo == pytest.approx(float(np.min(values)), abs=1e-8)
        assert hi == pytest.approx(float(np.max(values)), abs=1e-8)
        interior += lo < min(values[0], values[-1]) - 1e-6  # the parabola's vertex
    assert interior >= 1


def test_branch_routing():
    # one solve for every alpha >= 0: balanced alpha = 0 is the zero-mean
    # quadratic, unbalanced alpha = 0 has no profile, and the localization
    # check refuses the alpha = 0 family
    cfg = single_junction_config(alpha=0.0)
    profile = stationary.solve_stationary(cfg)
    xs = np.linspace(0.0, 1.0, 101)
    exact = xs**2 / 2.0 - xs / 2.0 + 1.0 / 12.0
    assert np.max(np.abs(stationary.eval_stationary(profile, xs) - exact)) < 1e-12
    with pytest.raises(NoSolutionError):
        stationary.solve_stationary(single_junction_config(alpha=0.0, forcing_offset=1.5))
    with pytest.raises(UnsupportedError):
        stationary.check_condition_S(profile, cfg)


def test_continuity_at_junctions(ex1):
    profile = stationary.solve_stationary(ex1)
    for a in ex1.junctions:
        left = stationary.eval_stationary(profile, (a - 1e-13) % ex1.omega)
        right = stationary.eval_stationary(profile, a)
        assert abs(left - right) <= 1e-10 * (1.0 + abs(right))


@pytest.mark.parametrize("preset", ["ex1", "ex2"])
def test_ode_residual_off_junctions(preset, request):
    cfg = request.getfixturevalue(preset)
    profile = stationary.solve_stationary(cfg)
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.0, cfg.omega, 1000)
    xs = xs[np.min(np.abs(xs[:, None] - np.array(cfg.junctions)[None, :]), axis=1) > 1e-6]
    residual = stationary.ode_residual(profile, xs)
    assert np.max(np.abs(residual)) <= 1e-9 * (1.0 + abs(profile.forcing_offset))


@pytest.mark.parametrize("preset", ["ex1", "ex2"])
def test_derivative_jumps_match_strengths(preset, request):
    cfg = request.getfixturevalue(preset)
    sigma, strengths, _ = effective_parameters(cfg)
    profile = stationary.solve_stationary(cfg)
    for k, c in enumerate(strengths):
        assert stationary.junction_slope_jump(profile, k) == pytest.approx(
            -c / sigma, abs=1e-10
        )


def test_uniqueness_under_permuted_assembly(ex1):
    # permuting the equations of the linear system must not change the answer
    profile = stationary.solve_stationary(ex1)
    sigma, strengths, _ = effective_parameters(ex1)
    matrix, rhs = stationary._jump_system(
        profile.lam, profile.lengths, strengths, sigma, profile.balanced_offset
    )
    k = len(profile.junctions)
    rng = np.random.default_rng(11)
    perm = rng.permutation(2 * k + 1)
    permuted = np.linalg.solve(matrix[perm], rhs[perm])[:-1].reshape(k, 2)
    assert np.max(np.abs(permuted - profile.coeffs)) < 1e-10


def test_forcing_scaling_linearity(ex1):
    gamma = 3.7
    scaled_cfg = config_from_dict(
        {
            "omega": ex1.omega,
            "junctions": list(ex1.junctions),
            "jump_strengths": [gamma * c for c in ex1.jump_strengths],
            "forcing_offset": gamma * ex1.forcing_offset,
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
    base = stationary.solve_stationary(ex1)
    scaled = stationary.solve_stationary(scaled_cfg)
    xs = np.linspace(0.0, ex1.omega, 500, endpoint=False)
    lhs = stationary.eval_stationary(scaled, xs) + scaled_cfg.forcing_offset / ex1.alpha
    rhs = gamma * (stationary.eval_stationary(base, xs) + ex1.forcing_offset / ex1.alpha)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * np.max(np.abs(rhs))


def test_zero_mean_for_mass_conserving_forcing(ex1):
    profile = stationary.solve_stationary(ex1)
    xs = np.linspace(0.0, ex1.omega, 200001)
    values = stationary.eval_stationary(profile, xs % ex1.omega)
    quadrature = np.trapezoid(values, xs) / ex1.omega
    assert abs(quadrature) < 1e-8
    assert abs(stationary.profile_mean(profile)) < 1e-12


@pytest.mark.parametrize("preset", ["ex1", "ex2"])
def test_against_finite_difference_oracle(preset, request):
    cfg = request.getfixturevalue(preset)
    profile = stationary.solve_stationary(cfg)
    x, s_fd = fd_stationary(cfg)
    s_cf = stationary.eval_stationary(profile, x)
    assert np.max(np.abs(s_fd - s_cf)) < 5e-9


def test_localization_report_long_interval_dips(ex1):
    # exactly one interval reaches the threshold, but the profile tops the
    # reset level at that interval's left junction, so the clearance fails
    profile = stationary.solve_stationary(ex1)
    report = stationary.check_condition_S(profile, ex1)
    assert report.rupture_interval_index == 0
    mins = dict(report.min_per_interval)
    assert mins[0] < ex1.eta_c
    assert mins[1] > ex1.eta_c and mins[2] > ex1.eta_c
    assert not report.eta_a_clearance
    assert stationary.eval_stationary(profile, 0.1) > ex1.eta_a
    assert not report.condition_S_holds


def test_localization_holds_with_a_higher_reset_level(ex1):
    # raising the reset level above the profile's peak on the long interval
    # (0.0445 at its left junction) makes the full localization check pass
    cfg = ModelConfig(
        **{
            **{f: getattr(ex1, f) for f in (
                "omega", "junctions", "jump_strengths", "forcing_offset", "sigma1",
                "sigma2", "tau", "alpha", "eta_c", "d", "mode", "reduction_case",
            )},
            "eta_a": 0.05,
        }
    )
    profile = stationary.solve_stationary(cfg)
    report = stationary.check_condition_S(profile, cfg)
    assert report.condition_S_holds
    assert report.rupture_interval_index == 0
    assert report.eta_a_clearance


def test_localization_fails_for_stiff_evaporation(ex2):
    profile = stationary.solve_stationary(ex2)
    report = stationary.check_condition_S(profile, ex2)
    assert not report.condition_S_holds
    below = [k for k, lo in report.min_per_interval if lo <= ex2.eta_c]
    assert len(below) >= 2
    assert report.rupture_interval_index is None


def test_localization_fails_for_flat_zero_profile():
    cfg = single_junction_config(jump_strengths=(0.0,), forcing_offset=0.0, eta_c=0.5, eta_a=1.0)
    profile = stationary.solve_stationary(cfg)
    report = stationary.check_condition_S(profile, cfg)
    assert not report.condition_S_holds


def test_localization_check_refused_for_quadratic_branch():
    cfg = single_junction_config(alpha=0.0)
    profile = stationary.solve_stationary(cfg)
    with pytest.raises(UnsupportedError):
        stationary.check_condition_S(profile, cfg)


def test_interval_extrema_match_dense_sampling(ex2):
    profile = stationary.solve_stationary(ex2)
    extrema = stationary.interval_extrema(profile)
    junctions = list(ex2.junctions) + [ex2.junctions[0] + ex2.omega]
    for k, (lo, hi) in enumerate(extrema):
        xs = np.linspace(junctions[k], junctions[k + 1], 20001)
        values = stationary.eval_stationary(profile, xs % ex2.omega)
        assert lo == pytest.approx(float(np.min(values)), abs=1e-8)
        assert hi == pytest.approx(float(np.max(values)), abs=1e-8)


def graded_mean(profile, nodes=20):
    """Mean of the closed form by composite Gauss-Legendre quadrature in each
    interval's own coordinate, on panels that double in width away from
    either end from well inside the boundary layer of width ``1/lam``, so
    that any evaporation rate is resolved.  The right half of an interval
    is the left half of the mirrored coefficients ``(p, -q)``, since ``C``
    and ``Q`` are even about the centre and ``S`` is odd, which keeps the
    distance to the right end exact."""
    points, weights = np.polynomial.legendre.leggauss(nodes)
    mirrored = profile._replace(coeffs=profile.coeffs * (1.0, -1.0))
    total = 0.0
    for k, length in enumerate(profile.lengths):
        half = length / 2.0
        first = half / max(1.0, half * profile.lam) / 16.0
        edges = [0.0] + [first * 2.0**i for i in range(int(np.log2(half / first)) + 1)] + [half]
        for lo, hi in zip(edges, edges[1:]):
            u = lo + (hi - lo) * (points + 1.0) / 2.0
            for half_profile in (profile, mirrored):
                value, _, _ = stationary._pieces(half_profile, k, u)
                total += (hi - lo) / 2.0 * float(np.dot(weights, value))
    return total / profile.omega


@pytest.mark.parametrize("alpha", [1e-3, 1.0, 1e4, 3e6, 1e12, 1e300])
def test_closed_form_under_stiff_evaporation(ex1, alpha):
    # the unscaled pair exp(+-lam*u) overflowed once lam*L > 709.78, from
    # alpha of about 3e6 on; every tolerance scales with the size of the
    # terms it compares, so no rate can trip it by mistake
    cfg = replace(ex1, alpha=alpha)
    sigma, strengths, offset_a = effective_parameters(cfg)
    profile = stationary.solve_stationary(cfg)
    coeffs = float(np.max(np.abs(profile.coeffs)))
    values = coeffs + abs(profile.offset)

    xs = np.random.default_rng(3).uniform(0.0, cfg.omega, 1000)
    xs = xs[np.min(np.abs(xs[:, None] - np.array(cfg.junctions)[None, :]), axis=1) > 1e-6]
    residual = np.max(np.abs(stationary.ode_residual(profile, xs)))
    assert residual <= 1e-12 * (sigma * profile.lam**2 * coeffs + abs(offset_a))

    for k, c in enumerate(strengths):
        jump = stationary.junction_slope_jump(profile, k)
        assert abs(jump + c / sigma) <= 1e-12 * (profile.lam * coeffs + max(strengths) / sigma)

    # sampling misses an interior minimum by at most about
    # values*(lam*h)**2*exp(-lam*L/2)/4 <= 1.4e-9*values at this spacing
    ends = list(cfg.junctions) + [cfg.junctions[0] + cfg.omega]
    for k, (lo, hi) in enumerate(stationary.interval_extrema(profile)):
        xs = np.linspace(ends[k], ends[k + 1], 20001)
        sampled = stationary.eval_stationary(profile, xs % cfg.omega)
        assert lo == pytest.approx(float(np.min(sampled)), abs=1e-8 * values)
        assert hi == pytest.approx(float(np.max(sampled)), abs=1e-8 * values)

    scale = abs(profile.offset) + coeffs * min(1.0, 1.0 / profile.lam)
    expected = graded_mean(profile)
    assert stationary.profile_mean(profile) == pytest.approx(expected, abs=1e-12 * scale)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.one_of(st.just(0.0), st.floats(-300.0, 0.0).map(lambda e: 10.0**e)),
    st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
    st.tuples(*[st.floats(-2.0, 2.0, allow_subnormal=False)] * 3),
)
def test_one_solve_is_uniform_as_evaporation_vanishes(ex1, alpha, sigma, strengths):
    # the exponential pair of each interval cancelled as lam*L -> 0: at
    # alpha = 1e-12 the ex1 profile came out near 78.7 instead of within
    # 0.065 of 0, and alpha = 1e-10 and 1e-30 failed the residual check
    balanced = math.fsum(strengths) / ex1.omega
    cfg = replace(ex1, alpha=alpha, sigma2=sigma, jump_strengths=strengths,
                  forcing_offset=balanced)
    profile = stationary.solve_stationary(cfg)
    limit = stationary.solve_stationary(replace(cfg, alpha=0.0))
    assert profile.offset == 0.0 and limit.lam == 0.0
    lam = profile.lam
    p, q = np.max(np.abs(profile.coeffs), axis=0)
    drive = abs(balanced) / sigma
    # C, S and Q are at most 1, omega/2 and omega**2/8 in size
    size = p + q * ex1.omega / 2.0 + drive * ex1.omega**2 / 8.0

    xs = np.random.default_rng(3).uniform(0.0, cfg.omega, 500)
    xs = xs[np.min(np.abs(xs[:, None] - np.array(cfg.junctions)[None, :]), axis=1) > 1e-6]
    residual = np.max(np.abs(stationary.ode_residual(profile, xs)))
    assert residual <= 1e-12 * (sigma * lam**2 * size + abs(balanced))
    for k, c in enumerate(strengths):
        jump = stationary.junction_slope_jump(profile, k)
        slopes = lam * p + q + drive * ex1.omega / 2.0 + max(map(abs, strengths)) / sigma
        assert abs(jump + c / sigma) <= 1e-12 * slopes
    assert abs(stationary.profile_mean(profile)) <= 1e-12 * size
    assert abs(graded_mean(profile)) <= 1e-12 * size

    # sigma*(s_0 - s_alpha)'' = alpha*s_alpha with both of mean 0, so the
    # difference is at most alpha*omega**2/12*max|s_alpha|/sigma
    largest = max(max(abs(lo), abs(hi)) for lo, hi in stationary.interval_extrema(profile))
    xs = np.linspace(0.0, ex1.omega, 1001, endpoint=False)
    gap = stationary.eval_stationary(profile, xs) - stationary.eval_stationary(limit, xs)
    assert np.max(np.abs(gap)) <= alpha * ex1.omega**2 * largest / sigma + 1e-12 * size
