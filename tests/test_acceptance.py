"""End-to-end acceptance checks.

Each test covers one numbered criterion at its stated tolerance and runtime
budget and prints a single PASS/FAIL line (run with ``pytest -s`` to see the
lines for passing criteria as well).

Criteria 3, 7 and 8 share one oracle, ``solver.fourier_reference``: the exact
per-mode decay of the deviation from the closed-form stationary profile.
Criteria 7 and 8 iterate it as an exact-semigroup return map
(``reference_events``), which involves no implicit step, cyclic solve or
step-size bisection, and compare the program's events against it; their
printed clauses state both the program value and the reference value.
"""
import math
import time

import numpy as np

from rupturesim.config import ModelConfig, config_from_dict
from rupturesim.errors import ModelViolationError
from rupturesim import periodic, rupture, solver, stationary
from rupturesim.config import effective_parameters
from rupturesim.solver import CoupledState, Field, assemble_operators, build_grid, constant_field


def report(num: int, name: str, elapsed: float, budget: float, clauses):
    """Print the one-line verdict, then assert every clause."""
    clauses = list(clauses) + [(f"runtime {elapsed:.1f}s < {budget:.0f}s", elapsed < budget)]
    verdict = "PASS" if all(ok for _, ok in clauses) else "FAIL"
    detail = "; ".join(f"{text}[{'ok' if ok else 'FAIL'}]" for text, ok in clauses)
    print(f"[criterion {num:02d}] {verdict} {name} ({elapsed:.1f}s): {detail}")
    for text, ok in clauses:
        assert ok, f"criterion {num}: {text}"


def reference_events(config: ModelConfig, eta0: Field, max_events: int) -> list:
    """Rupture events of the exact-semigroup return map, as
    ``(reset_intervals, pre_profile)`` pairs.

    Between ruptures the thickness is ``solver.fourier_reference`` of the
    last post-reset state, evaluated at continuous times.  These are sampled
    every ``4 * numerics.dt`` until the minimum reaches ``eta_c``; the
    crossing time is then bisected to a 1e-12 bracket, and the program's
    half-open reset (``rupture_intervals``, ``apply_reset``) is applied to
    the state at the upper end.  Sampling every ``dt / 4`` instead gives the
    same events on ex1 and ex2.
    """
    scan = 4.0 * config.numerics.dt
    state, events = eta0, []
    while len(events) < max_events:
        lo, hi = 0.0, scan
        at = solver.fourier_reference(config, state, hi)
        while float(np.min(at.values)) > config.eta_c:
            assert hi < 1.0, "reference map: no rupture within one time unit"
            lo, hi = hi, hi + scan
            at = solver.fourier_reference(config, state, hi)
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            trial = solver.fourier_reference(config, state, mid)
            if float(np.min(trial.values)) <= config.eta_c:
                hi, at = mid, trial
            else:
                lo = mid
        intervals = rupture.rupture_intervals(at, config)
        events.append((intervals, at))
        state = rupture.apply_reset(at, intervals, config)
    return events


def consecutive_diffs(profiles) -> list[float]:
    """Sup-norm differences between consecutive rupture-time profiles."""
    return [float(np.max(np.abs(b.values - a.values))) for a, b in zip(profiles, profiles[1:])]


def test_criterion_01_stationary_closed_form():
    start = time.perf_counter()
    cfg = ModelConfig(
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
    profile = stationary.solve_stationary(cfg)
    xs = np.linspace(0.0, 1.0, 1000, endpoint=False)
    exact = -1.0 + np.cosh(xs - 0.5) / (2.0 * np.sinh(0.5))
    err = float(np.max(np.abs(stationary.eval_stationary(profile, xs) - exact)))
    report(
        1,
        "single-junction stationary closed form",
        time.perf_counter() - start,
        1.0,
        [(f"max error {err:.2e} <= 1e-9", err <= 1e-9)],
    )


def test_criterion_02_stationary_residual_and_jumps(ex1, ex2):
    start = time.perf_counter()
    clauses = []
    rng = np.random.default_rng(19)
    for label, cfg in (("ex1", ex1), ("ex2", ex2)):
        profile = stationary.solve_stationary(cfg)
        sigma, strengths, offset = effective_parameters(cfg)
        xs = rng.uniform(0.0, cfg.omega, 1200)
        xs = xs[np.min(np.abs(xs[:, None] - np.array(cfg.junctions)[None, :]), axis=1) > 1e-9]
        residual = float(np.max(np.abs(stationary.ode_residual(profile, xs))))
        clauses.append((f"{label} residual {residual:.1e} <= 1e-9", residual <= 1e-9))
        jump_err = max(
            abs(stationary.junction_slope_jump(profile, k) - (-c / sigma))
            for k, c in enumerate(strengths)
        )
        clauses.append((f"{label} jump error {jump_err:.1e} <= 1e-9", jump_err <= 1e-9))
    report(2, "stationary residual and slope jumps", time.perf_counter() - start, 1.0, clauses)


def test_criterion_03_solver_matches_fourier_oracle(ex1):
    start = time.perf_counter()
    grid = build_grid(ex1, 1024)
    profile = stationary.solve_stationary(ex1)
    s_nodes = stationary.eval_stationary(profile, grid.nodes)
    eta0 = Field(grid, s_nodes + np.cos(2.0 * np.pi * grid.nodes / ex1.omega), 0.0)
    ref = solver.fourier_reference(ex1, eta0, 0.1)
    ops = assemble_operators(grid, ex1)
    clauses = []
    errors = []
    for dt in (1e-3, 5e-4, 2.5e-4):
        out = solver.evolve(eta0.copy(), 0.1, dt, ops)
        err = float(np.max(np.abs(out.values - ref.values)))
        errors.append(err)
        clauses.append((f"dt={dt:g} error {err:.2e} <= {5 * dt:.1e}", err <= 5.0 * dt))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    for order in orders:
        clauses.append((f"observed order {order:.3f} in [0.8, 1.2]", 0.8 <= order <= 1.2))
    report(3, "implicit stepping against the spectral oracle", time.perf_counter() - start, 10.0, clauses)


def test_criterion_04_discrete_mean_decay(ex1):
    start = time.perf_counter()
    grid = build_grid(ex1)
    ops = assemble_operators(grid, ex1)
    dt = ex1.numerics.dt
    state = constant_field(grid, ex1.eta_a)
    worst = 0.0
    for _ in range(10_000):
        new = solver.advance(state, dt, ops)
        lhs = float(np.mean(new.values)) * (1.0 + ex1.alpha * dt)
        rhs = float(np.mean(state.values))
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
        state = new
    report(
        4,
        "exact decay law of the discrete mean",
        time.perf_counter() - start,
        5.0,
        [(f"worst relative defect {worst:.1e} <= 1e-11", worst <= 1e-11)],
    )


def test_criterion_05_comparison_principle(ex1):
    start = time.perf_counter()
    grid = build_grid(ex1)
    ops = assemble_operators(grid, ex1)
    dt = ex1.numerics.dt
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        low = Field(grid, rng.uniform(-1.0, 1.0, grid.n), 0.0)
        high = Field(grid, low.values + rng.uniform(0.0, 1.0, grid.n), 0.0)
        for _ in range(100):
            low = solver.advance(low, dt, ops)
            high = solver.advance(high, dt, ops)
            worst = max(worst, float(np.max(low.values - high.values)))
    report(
        5,
        "order preservation of the implicit step",
        time.perf_counter() - start,
        10.0,
        [(f"worst ordering violation {worst:.1e} <= 1e-12", worst <= 1e-12)],
    )


def test_criterion_06_first_rupture_inside_analytic_bounds(ex1):
    start = time.perf_counter()
    grid = build_grid(ex1)
    eta0 = constant_field(grid, ex1.eta_a)
    bounds = rupture.rupture_time_bounds(ex1, eta0)
    events, _ = rupture.run_with_rupture(ex1, eta0, max_events=1)
    t_first = events[0].time
    dt = ex1.numerics.dt
    ok = bounds.t_lower - 2.0 * dt <= t_first <= bounds.t_upper + 2.0 * dt
    report(
        6,
        "first rupture inside the closed-form bounds",
        time.perf_counter() - start,
        30.0,
        [
            (
                f"t1={t_first:.5f} in [{bounds.t_lower - 2 * dt:.5f}, {bounds.t_upper + 2 * dt:.3f}]",
                ok,
            )
        ],
    )


def test_criterion_07_periodic_scenario_reproduction(ex1):
    start = time.perf_counter()
    grid = build_grid(ex1)
    flat = constant_field(grid, ex1.eta_a)
    wavy = Field(
        grid,
        ex1.eta_a + 0.5 * ex1.eta_a * np.sin(2.0 * np.pi * grid.nodes / ex1.omega),
        0.0,
    )
    events_flat, _ = rupture.run_with_rupture(ex1, flat, max_events=30)
    events_wavy, _ = rupture.run_with_rupture(ex1, wavy, max_events=30)
    clauses = []
    for label, start_state, events in (("flat", flat, events_flat), ("wavy", wavy, events_wavy)):
        clauses.append(
            (
                f"{label}: every reset interval is the long one",
                all(e.reset_intervals == (0,) for e in events),
            )
        )
        diffs = consecutive_diffs([e.pre_profile for e in events])
        monotone = all(x >= y for x, y in zip(diffs[2:], diffs[3:]))
        clauses.append((f"{label}: diffs monotone from event 3 onward", monotone))
        reference = consecutive_diffs([pre for _, pre in reference_events(ex1, start_state, 30)])
        gap = abs(diffs[28] - reference[28]) / reference[28]
        clauses.append(
            (
                f"{label}: diff at event 30 = {diffs[28]:.3e} vs reference {reference[28]:.3e},"
                f" gap {gap:.1%} <= 10%",
                gap <= 0.10,
            )
        )
    agreement = float(
        np.max(np.abs(events_flat[29].pre_profile.values - events_wavy[29].pre_profile.values))
    )
    clauses.append((f"both starts agree to {agreement:.2e} <= 2e-6", agreement <= 2e-6))
    report(7, "rupture-time profile convergence", time.perf_counter() - start, 120.0, clauses)


def test_criterion_08_delocalized_scenario_reproduction(ex2):
    start = time.perf_counter()
    grid = build_grid(ex2)
    eta0 = constant_field(grid, ex2.eta_a)
    events, _ = rupture.run_with_rupture(ex2, eta0, max_events=5)
    spans = np.diff(np.append(ex2.junctions, ex2.junctions[0] + ex2.omega))
    largest = int(np.argmax(spans))
    elsewhere = any(k != largest for e in events for k in e.reset_intervals)
    sequence = [e.reset_intervals for e in events]
    reference = [intervals for intervals, _ in reference_events(ex2, eta0, 5)]
    violated = False
    try:
        periodic.find_periodic(ex2, fp_tol=1e-6, max_iter=10)
    except ModelViolationError:
        violated = True
    report(
        8,
        "delocalized ruptures defeat the orbit search",
        time.perf_counter() - start,
        60.0,
        [
            (f"some event among the first 5 resets an interval other than {largest}", elsewhere),
            (
                f"interval sequence {sequence} equals the reference {reference}",
                sequence == reference,
            ),
            ("orbit search raises a model violation", violated),
        ],
    )


def test_criterion_09_coupled_scenario_reproduction(ex3):
    start = time.perf_counter()
    grid = build_grid(ex3)
    eta0 = constant_field(grid, ex3.eta_a)
    h0 = constant_field(grid, 0.0)
    state = CoupledState(h0, Field(grid, h0.values + eta0.values, 0.0))
    events, _ = rupture.run_with_rupture(ex3, state, max_events=30)
    diffs = [
        float(np.max(np.abs(b.pre_profile.values - a.pre_profile.values)))
        for a, b in zip(events, events[1:])
    ]
    never_settles = min(diffs) > 1e-6

    dx = grid.dx
    mass = lambda f: float(np.sum(f.values)) * dx
    worst_drop = 0.0
    worst_drift = 0.0
    prev_mass, prev_time = mass(h0), 0.0
    for event in events:
        reset_nodes = int(rupture.reset_mask(grid, ex3, event.reset_intervals).sum())
        drop = mass(event.pre_h) - mass(event.post_h)
        worst_drop = max(worst_drop, abs(drop - ex3.d * reset_nodes * dx))
        worst_drift = max(worst_drift, abs(mass(event.pre_h) - prev_mass) / (event.time - prev_time))
        prev_mass, prev_time = mass(event.post_h), event.time
    report(
        9,
        "coupled run never settles and conserves height mass",
        time.perf_counter() - start,
        180.0,
        [
            (f"min consecutive diff {min(diffs):.2e} > 1e-6 over 30 events", never_settles),
            (f"reset drop defect {worst_drop:.1e} <= 1e-12", worst_drop <= 1e-12),
            (f"between-event drift {worst_drift:.1e} <= 1e-9 per unit time", worst_drift <= 1e-9),
        ],
    )


def test_criterion_10_two_period_certification(ex1):
    start = time.perf_counter()
    converged = periodic.find_periodic(ex1, fp_tol=1e-6, max_iter=45)
    assert converged.converged
    verified = periodic.verify_periodic(ex1, converged.fixed_profile, 1e-5)
    spliced = periodic.splice(converged.fixed_profile, ex1, 0)
    spliced.time = 0.0
    events, _ = rupture.run_with_rupture(ex1, spliced, max_events=2)
    gap_one = events[0].time
    gap_two = events[1].time - events[0].time
    dt = ex1.numerics.dt
    report(
        10,
        "periodicity certified over two further periods",
        time.perf_counter() - start,
        60.0,
        [
            ("two-period check passes at tol 1e-5", verified),
            (f"|gap1-gap2|={abs(gap_one - gap_two):.1e} <= 2dt", abs(gap_one - gap_two) <= 2 * dt),
            (
                f"gaps match the reported period to 2dt (T={converged.period:.6f})",
                abs(gap_one - converged.period) <= 2 * dt
                and abs(gap_two - converged.period) <= 2 * dt,
            ),
        ],
    )


def test_criterion_11_coupled_decoupled_consistency(ex1):
    start = time.perf_counter()
    coupled_cfg = config_from_dict(
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
    grid = build_grid(coupled_cfg)
    ops = assemble_operators(grid, coupled_cfg)
    ops_single = assemble_operators(grid, ex1)
    dt = coupled_cfg.numerics.dt
    eta = constant_field(grid, coupled_cfg.eta_a)
    h = Field(grid, 0.2 * np.sin(2.0 * np.pi * grid.nodes), 0.0)
    pair = CoupledState(h, Field(grid, h.values + eta.values, 0.0))
    worst = 0.0
    steps = int(round(0.5 / dt))
    for _ in range(steps):
        pair = solver.advance(pair, dt, ops)
        eta = solver.advance(eta, dt, ops_single)
        worst = max(worst, float(np.max(np.abs((pair.zeta.values - pair.h.values) - eta.values))))
    report(
        11,
        "pair dynamics reduce to the single equation",
        time.perf_counter() - start,
        30.0,
        [(f"sup deviation {worst:.1e} <= {10 * dt:.0e} over [0, 0.5]", worst <= 10.0 * dt)],
    )


def test_criterion_12_gradient_bound_probe(ex1):
    start = time.perf_counter()
    times = [1e-3, 1e-2, 1e-1, 1.0]
    constants = {}
    for n in (1024, 2048):
        grid = build_grid(ex1, n)
        probe = periodic.gradient_probe(ex1, constant_field(grid, ex1.eta_a), times)
        constants[n] = (probe.c0, probe.c1)
    clauses = [
        (
            f"constants finite: {constants[1024]} and {constants[2048]}",
            all(math.isfinite(c) for pair in constants.values() for c in pair),
        )
    ]
    for slot, name in ((0, "c0"), (1, "c1")):
        a, b = constants[1024][slot], constants[2048][slot]
        stable = (abs(a) < 1e-12 and abs(b) < 1e-12) or (
            max(a, b) <= 2.0 * min(a, b) and min(a, b) > 0.0
        )
        clauses.append((f"{name} stable under refinement ({a:.4f} vs {b:.4f})", stable))
    report(12, "smoothing-estimate constants stable", time.perf_counter() - start, 60.0, clauses)
