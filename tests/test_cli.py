import copy
import gc
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rupturesim
from rupturesim import cli, rupture, solver, stationary
from rupturesim.cli import PRESETS, main, preset_config, write_profile_csv


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def test_bounds_command_closed_forms(tmp_path):
    out = tmp_path / "bounds"
    code = main(
        ["bounds", "--preset", "ex1", "--eta0", "const:0.03", "--out", str(out)]
    )
    assert code == 0
    report = read_json(out / "report.json")
    assert report["t_lower"] == pytest.approx(math.log(3.03 / (3.0 + 3e-14)), rel=1e-9)
    assert report["t_lower"] == pytest.approx(0.0099503, abs=1e-7)
    assert report["t_upper"] == pytest.approx(math.log(0.03 / 3e-14), rel=1e-12)
    assert report["t_upper"] == pytest.approx(27.631021, abs=1e-6)
    assert report["lower_applicable"] and report["upper_applicable"]


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_an_undefined_bound_is_written_as_strict_json(tmp_path):
    # offset/alpha + eta_c == 0 leaves the lower bound undefined; it used to
    # reach report.json as the bare token NaN, which no strict parser reads
    out = tmp_path / "bounds"
    args = ["bounds", "--preset", "ex1", "--set", "forcing_offset=-3e-14", "--out", str(out)]
    assert main(args) == 0
    report = json.loads((out / "report.json").read_text(), parse_constant=refuse_constant)
    assert report["t_lower"] is None and not report["lower_applicable"]
    assert math.isfinite(report["t_upper"])


def test_stationary_command_dumps_the_profile(tmp_path):
    out = tmp_path / "stat"
    assert main(["stationary", "--preset", "ex1", "--out", str(out)]) == 0
    rows = np.loadtxt(out / "stationary.csv", delimiter=",", skiprows=1)
    cfg = preset_config("ex1")
    assert rows.shape == (cfg.numerics.grid_points, 2)
    report = read_json(out / "report.json")
    assert report["rupture_interval_index"] == 0
    assert report["condition_S_holds"] is False


def test_stationary_command_without_evaporation_refuses_only_the_localization_check(tmp_path):
    out = tmp_path / "stat"
    assert main(["stationary", "--preset", "ex1", "--set", "alpha=0", "--out", str(out)]) == 0
    rows = np.loadtxt(out / "stationary.csv", delimiter=",", skiprows=1)
    cfg = preset_config("ex1", overrides=(("alpha", 0.0),))
    profile = stationary.solve_stationary(cfg)
    assert np.array_equal(rows[:, 1], stationary.eval_stationary(profile, rows[:, 0]))
    report = read_json(out / "report.json")
    assert report["condition_S_holds"] is None
    assert report["note"] == "localization check refused for the alpha = 0 profile family"


@pytest.mark.parametrize(
    "override, bound, index",
    [("alpha=1e-12", 1e-11, 0), ("alpha=1e-30", 1e-15, 0), ("sigma2=1e25", 1e-24, None)],
)
def test_stationary_command_under_weak_evaporation_nears_the_alpha_zero_profile(
    tmp_path, override, bound, index
):
    # the profile tends to the alpha = 0 one at a rate of about 1.35e-3*alpha
    # for ex1, and every value is within 1e-26 of 0 at sigma2 = 1e25, below
    # eta_c on every interval; the exponential pair basis came out near 78.7
    # at alpha = 1e-12 and flat at 7.8e-5 at sigma2 = 1e25
    out = tmp_path / "stat"
    assert main(["stationary", "--preset", "ex1", "--set", override, "--out", str(out)]) == 0
    rows = np.loadtxt(out / "stationary.csv", delimiter=",", skiprows=1)
    key, value = override.split("=")
    cfg = preset_config("ex1", overrides=((key, float(value)), ("alpha", 0.0)))
    limit = stationary.eval_stationary(stationary.solve_stationary(cfg), rows[:, 0])
    assert np.max(np.abs(rows[:, 1] - limit)) <= bound
    assert read_json(out / "report.json")["rupture_interval_index"] == index


def test_stationary_command_keeps_a_huge_finite_mean(tmp_path):
    out = tmp_path / "stat"
    args = ["stationary", "--preset", "ex1", "--set", "alpha=1e-300",
            "--set", "forcing_offset=4", "--out", str(out)]
    assert main(args) == 0
    rows = np.loadtxt(out / "stationary.csv", delimiter=",", skiprows=1)
    assert np.allclose(rows[:, 1], -1e300, rtol=1e-12, atol=0.0)


def test_simulate_emits_events_and_profiles(tmp_path):
    out = tmp_path / "run"
    code = main(["simulate", "--preset", "ex1", "--max-events", "3", "--out", str(out)])
    assert code == 0
    lines = (out / "events.jsonl").read_text().splitlines()
    assert len(lines) == 3
    for j, line in enumerate(lines, start=1):
        record = json.loads(line)
        assert record["j"] == j
        assert record["reset_intervals"] == [0]
        assert (out / record["pre_csv"]).exists()
        assert (out / record["post_csv"]).exists()
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "simulate"
    assert manifest["config"]["alpha"] == 1.0
    assert str(out) not in (out / "manifest.json").read_text()


def test_simulate_is_byte_reproducible(tmp_path):
    runs = {
        "ex1": ["simulate", "--preset", "ex1", "--max-events", "2"],
        "ex3": ["simulate", "--preset", "ex3", "--max-events", "3",
                "--set", "numerics.grid_points=256"],
    }
    for name, args in runs.items():
        # the first run fills every table cache, the second reuses them
        for cache in (
            solver.assemble_operators,
            solver.Operators.decoupled_factors,
            solver.Operators.coupled_tables,
            solver._inverse_symbol,
            solver._second_difference_symbol,
            solver._mode_weights,
            solver._unit_roots,
        ):
            cache.cache_clear()
        out_a, out_b = tmp_path / name / "a", tmp_path / name / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        for path_a in sorted(out_a.iterdir()):
            path_b = out_b / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes()


def test_overrides_reach_the_resolved_config(tmp_path):
    out = tmp_path / "ov"
    code = main(
        [
            "bounds",
            "--preset",
            "ex1",
            "--set",
            "alpha=2.0",
            "--set",
            "numerics.grid_points=256",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["config"]["alpha"] == 2.0
    assert manifest["config"]["numerics"]["grid_points"] == 256


def test_scenario_file_round_trip(tmp_path):
    cfg_path = tmp_path / "scenario.json"
    raw = dict(
        omega=1.0,
        junctions=[0.2, 0.7],
        jump_strengths=[1.0, 1.0],
        forcing_offset=2.0,
        sigma1=1.0,
        sigma2=1.0,
        tau=1.0,
        alpha=1.0,
        eta_c=0.001,
        eta_a=0.02,
        d=0.1,
        mode="decoupled",
    )
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "file-run"
    assert main(["bounds", "--config", str(cfg_path), "--out", str(out)]) == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["config"]["junctions"] == [0.2, 0.7]


def test_invalid_scenario_exits_with_config_error(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"omega": 1.0}))
    assert main(["bounds", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
    cfg_path.write_text("{broken")
    assert main(["bounds", "--config", str(cfg_path), "--out", str(tmp_path / "y")]) == 2


def test_bad_override_exits_with_config_error(tmp_path):
    assert main(["bounds", "--preset", "ex1", "--set", "alpha", "--out", str(tmp_path)]) == 2


def test_find_periodic_then_verify_succeeds(tmp_path):
    out = tmp_path / "orbit"
    code = main(
        [
            "find-periodic",
            "--preset",
            "ex1",
            "--fp-tol",
            "1e-5",
            "--max-iter",
            "40",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = read_json(out / "report.json")
    assert report["converged"] is True
    assert report["distinguished_interval"] == 0
    assert (out / report["fixed_csv"]).exists()
    assert [row["m"] for row in report["iterates"]] == list(
        range(1, len(report["iterates"]) + 1)
    )
    assert main(["verify", "--preset", "ex1", "--fp-tol", "1e-3", "--out", str(out)]) == 0
    assert read_json(out / "verify_report.json")["verified"] is True


def test_find_periodic_flags_delocalized_scenario(tmp_path):
    out = tmp_path / "bad-orbit"
    code = main(["find-periodic", "--preset", "ex2", "--out", str(out)])
    assert code == 1


def test_coupled_search_does_not_converge(tmp_path):
    out = tmp_path / "coupled"
    code = main(
        ["find-periodic", "--preset", "ex3", "--max-iter", "3", "--out", str(out)]
    )
    assert code == 0
    report = read_json(out / "report.json")
    assert report["converged"] is False
    assert main(["verify", "--preset", "ex3", "--out", str(out)]) == 1


def test_verify_refuses_a_coupled_orbit(tmp_path, capsys):
    # a converged coupled search writes a thickness profile without the
    # height a coupled run starts from; verify handed it to that run and
    # exited with an internal state-kind message
    out = tmp_path / "coupled"
    assert main(["find-periodic", "--preset", "ex3", "--fp-tol", "1", "--out", str(out)]) == 0
    assert read_json(out / "report.json")["converged"] is True
    capsys.readouterr()
    assert main(["verify", "--preset", "ex3", "--out", str(out)]) == 2
    assert "verify needs decoupled mode" in capsys.readouterr().err
    assert not (out / "verify_report.json").exists()


def test_initial_condition_mini_language(tmp_path):
    out = tmp_path / "sine"
    code = main(
        [
            "bounds",
            "--preset",
            "ex1",
            "--eta0",
            "const_plus_sine:0.03,0.015,1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = read_json(out / "report.json")
    # infimum of the sine start is 0.015, the mean stays 0.03
    assert report["t_lower"] == pytest.approx(math.log(3.015 / (3.0 + 3e-14)), rel=1e-6)
    assert report["t_upper"] == pytest.approx(math.log(0.03 / 3e-14), rel=1e-9)


def test_unknown_initial_condition_is_a_config_error(tmp_path):
    assert (
        main(["bounds", "--preset", "ex1", "--eta0", "ramp:1", "--out", str(tmp_path / "z")])
        == 2
    )


def test_simulate_on_a_fine_grid(tmp_path):
    out = tmp_path / "fine"
    code = main(
        [
            "simulate",
            "--preset",
            "ex1",
            "--set",
            "numerics.grid_points=16384",
            "--max-events",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert len((out / "events.jsonl").read_text().splitlines()) == 1


@pytest.mark.parametrize("command", ["find-periodic", "verify"])
def test_return_map_commands_reject_zero_alpha(tmp_path, command):
    out = tmp_path / command
    assert main([command, "--preset", "ex1", "--set", "alpha=0", "--out", str(out)]) == 2


def run_child(*args, timeout):
    """Run ``python *args`` in a fresh interpreter that imports this checkout."""
    src = str(Path(rupturesim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=env
    )


def test_cli_import_loads_no_scipy():
    # nor periodic, which only find-periodic and verify import
    child = run_child(
        "-c",
        "import sys, rupturesim.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
        "'rupturesim.periodic' in sys.modules)",
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[] False"


def test_result_records_are_named_tuples(ex1):
    # their documented use: ._replace, unpacking and comparison as tuples
    records = (rupturesim.BoundsReport, rupturesim.RuptureEvent, rupturesim.ConvergenceReport,
               rupturesim.GradientProbeReport, rupturesim.StationaryProfile, rupturesim.SReport,
               rupturesim.ValidationReport, cli.RunManifest)
    assert all(issubclass(record, tuple) and record._fields for record in records)
    report = rupturesim.validate(ex1)
    holds, _, mass = report
    assert report._replace(integral_f=0.0) == (holds, 0.0, mass)


def test_in_process_main_freezes_nothing(tmp_path):
    before = gc.get_freeze_count()
    assert main(["bounds", "--preset", "ex1", "--out", str(tmp_path / "bounds")]) == 0
    assert gc.get_freeze_count() == before


def test_process_entry_runs_main_then_freezes_the_heap(tmp_path):
    # the entry of `python -m rupturesim.cli` and of the console script
    out = tmp_path / "bounds"
    child = run_child(
        "-c",
        "import gc, sys, rupturesim.cli as cli; "
        f"sys.argv = ['rupturesim', 'bounds', '--preset', 'ex1', '--out', {str(out)!r}]; "
        "code = cli.entry(); print(code, gc.get_freeze_count() > 0)",
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "0 True"
    assert read_json(out / "report.json")["command"] == "bounds"


def test_simulate_refuses_a_run_that_cannot_rupture(tmp_path):
    # run in a child process so that a regression fails on the timeout
    # instead of hanging the suite
    args = ["simulate", "--preset", "ex1", "--set", "forcing_offset=0", "--max-events", "1"]
    child = run_child("-m", "rupturesim.cli", *args, "--out", str(tmp_path / "run"), timeout=60)
    assert child.returncode == 2
    assert "--t-end" in child.stderr


def test_simulate_refuses_a_run_without_evaporation_that_cannot_rupture(tmp_path):
    # alpha = 0 with a zero mean load: the mean stays put and the state stays
    # above min s + min(x - s), with s the zero-mean shape, so without an end
    # time these would run forever; at eta_a = 0.14 a Fourier bound on the
    # transient about s is negative, and only this one refuses the run.
    # Under a positive mean load every step lifts that bound by
    # dt*mean(load), so the state clears the threshold for good after a
    # counted number of steps; without that count the forcing_offset runs
    # jumped the clock to t = 1.1e12 and ended on steps that no longer
    # advanced it.  A mean load that rises more slowly still ruptures first
    for override in ("eta_a=0.3", "eta_a=0.14", "forcing_offset=0", "forcing_offset=1"):
        args = ["simulate", "--preset", "ex1", "--set", "alpha=0", "--set", override,
                "--max-events", "1", "--out", str(tmp_path / override)]
        child = run_child("-m", "rupturesim.cli", *args, timeout=30)
        assert child.returncode == 2, child.stderr
        assert "--t-end" in child.stderr
        assert "Traceback" not in child.stderr
    out = tmp_path / "rupturing"
    args = ["simulate", "--preset", "ex1", "--set", "alpha=0", "--set", "forcing_offset=2.9",
            "--max-events", "1", "--out", str(out)]
    child = run_child("-m", "rupturesim.cli", *args, timeout=30)
    assert child.returncode == 0, child.stderr
    assert len((out / "events.jsonl").read_text().splitlines()) == 1


def test_simulate_to_a_distant_end_time_finishes(tmp_path):
    # jumps cover this run; its time bookkeeping once took one addition per
    # step, 10**10 of them
    args = ["simulate", "--preset", "ex1", "--set", "forcing_offset=2", "--t-end", "1e6"]
    child = run_child("-m", "rupturesim.cli", *args, "--out", str(tmp_path / "run"), timeout=30)
    assert child.returncode == 0, child.stderr


def test_simulate_refuses_a_time_step_that_no_longer_advances_the_time(tmp_path):
    # once t + dt == t the closed-form jumps leave the time where it is, so
    # without this refusal the run looped for ever; at the smallest normal
    # dt the step count to the horizon overflowed and ended in a traceback
    for dt in ("1e-300", "2.2250738585072014e-308"):
        args = ["simulate", "--preset", "ex1", "--set", f"numerics.dt={dt}", "--max-events", "1",
                "--out", str(tmp_path / dt)]
        child = run_child("-m", "rupturesim.cli", *args, timeout=30)
        assert child.returncode == 2, child.stderr
        assert "no longer advance the time" in child.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--preset", "ex3", "--set", "numerics.dt=2.2250738585072014e-308",
         "--t-end", "1"],
        ["simulate", "--preset", "ex3", "--set", "numerics.dt=1e-200", "--t-end", "1"],
        ["simulate", "--preset", "ex1", "--set", "numerics.dt=2.2250738585072014e-308",
         "--t-end", "1"],
    ],
    ids=["coupled-smallest-normal", "coupled-1e-200", "decoupled-smallest-normal"],
)
def test_simulate_refuses_a_time_step_that_cannot_reach_t_end(tmp_path, args):
    # a coupled gap tests every step, so once t + dt == t it stepped until
    # killed; the decoupled run was already refused by its jumps
    child = run_child("-m", "rupturesim.cli", *args, "--out", str(tmp_path / "run"), timeout=30)
    assert child.returncode == 2, child.stderr
    assert "steps of dt = " in child.stderr and "no longer advance the time" in child.stderr


def test_simulate_refuses_a_domain_whose_grid_spacing_cannot_be_squared(tmp_path):
    # dx**2 overflowed in the first implicit step and ended in a traceback
    args = ["simulate", "--preset", "ex1", "--set", "omega=1e300", "--max-events", "1"]
    child = run_child("-m", "rupturesim.cli", *args, "--out", str(tmp_path / "run"), timeout=30)
    assert child.returncode == 2, child.stderr
    assert "Traceback" not in child.stderr
    assert "grid spacing" in child.stderr


@pytest.mark.parametrize(
    "args, timeout",
    [
        (["bounds", "--preset", "ex1", "--set", "forcing_offset=-3e-14"], 60),
        (["simulate", "--preset", "ex1", "--set", "forcing_offset=-3e-14",
          "--max-events", "1"], 60),
        (["find-periodic", "--preset", "ex1", "--set", "forcing_offset=-3e-14"], 60),
        (["simulate", "--preset", "ex2", "--set", "forcing_offset=-0.18", "--max-events", "1"], 60),
        (["simulate", "--preset", "ex1", "--set", "jump_strengths=[1e308,1e308,1e308]",
          "--max-events", "1"], 60),
        (["simulate", "--preset", "ex1", "--set", "jump_strengths=[1e306,1e306,1e306]",
          "--set", "forcing_offset=3e306", "--max-events", "1"], 60),
        (["stationary", "--preset", "ex1", "--set", "alpha=3e6"], 60),
        (["find-periodic", "--preset", "ex1", "--set", "alpha=3e6"], 60),
        (["simulate", "--preset", "ex1", "--set", "sigma2=1e15", "--t-end", "1"], 60),
        (["simulate", "--preset", "ex1", "--set", "sigma2=1e300", "--t-end", "1"], 60),
        (["simulate", "--preset", "ex1", "--set", "alpha=0", "--set", "eta_a=0.3",
          "--t-end", "1"], 20),
        (["simulate", "--preset", "ex1", "--set", "alpha=0", "--set", "eta_a=0.3",
          "--t-end", "100"], 20),
        (["simulate", "--preset", "ex1", "--set", "alpha=0", "--set", "forcing_offset=0",
          "--max-events", "1"], 20),
    ],
    ids=["bounds", "simulate-ex1", "find-periodic", "simulate-ex2", "strength-sum-overflows",
         "load-not-finite", "stationary-stiff-evaporation", "find-periodic-stiff-evaporation",
         "sigma2-1e15", "sigma2-1e300", "no-evaporation-t-end-1", "no-evaporation-t-end-100",
         "no-evaporation-rising-mean"],
)
def test_offset_that_cancels_the_threshold_ends_without_a_traceback(tmp_path, args, timeout):
    # offset/alpha + eta_c == 0 made the rupture-time lower bound divide by
    # zero, which ended in a ZeroDivisionError traceback and exit 1; jump
    # strengths whose sum overflows ended in an OverflowError from validate;
    # a load that overflows once divided by the grid spacing warned and
    # ended in a jump of minimum nan, exit 3; the stationary profile's
    # exp(lam*L) overflowed from alpha of about 3e6 on; and step-matrix
    # eigenvalues formed as diag + off*(2 - s_k) cancelled to roundoff or
    # nan for a large sigma2, exit 3; and a gap without evaporation took
    # every step singly, a million of them up to t = 100, and forever under
    # a positive mean load
    out = str(tmp_path / "run")
    child = run_child("-m", "rupturesim.cli", *args, "--out", out, timeout=timeout)
    assert child.returncode in (0, 1, 2, 3), child.stderr
    assert child.returncode != 1 or child.stderr.startswith("model violation:"), child.stderr
    assert "Traceback" not in child.stderr
    assert "Warning" not in child.stderr


@pytest.mark.parametrize(
    "args, code",
    [
        (["simulate", "--preset", "ex3", "--set", "tau=1e-300", "--t-end", "0.05"], 2),
        (["stationary", "--preset", "ex1", "--set", "sigma2=1e-300"], 0),
        (["stationary", "--preset", "ex1", "--set", "sigma2=1e300"], 0),
        (["stationary", "--preset", "ex1", "--set", "alpha=1e-300"], 0),
    ] + [
        (["simulate", "--preset", "ex3", "--set", f"tau={tau}", "--t-end", "0.05"], 2)
        for tau in ("1e-150", "1e-152", "1e-153", "1e-155", "1e-157", "1e-159")
    ] + [
        (["stationary", "--preset", "ex1", "--set", override], 0)
        for override in ("alpha=1e-8", "alpha=1e-10", "alpha=1e-12", "alpha=1e-30",
                         "sigma2=1e25", "sigma2=1e29", "sigma2=1e31")
    ] + [
        (["stationary", "--preset", "ex1", "--set", f"alpha={alpha}",
          "--set", "forcing_offset=4"], code)
        for alpha, code in (("1e-300", 0), ("1e-310", 2))
    ] + [
        (["stationary", "--preset", "ex1", "--set", "alpha=1e300", "--set", "sigma2=5e-324"], 2),
        (["stationary", "--preset", "ex1", "--set", "sigma2=1e-310"], 2),
        (["find-periodic", "--preset", "ex1", "--set", "omega=1e12"], 2),
        (["find-periodic", "--preset", "ex2", "--set", "omega=1e12"], 2),
        (["simulate", "--preset", "ex1", "--set", "eta_a=1e300", "--set", "sigma2=1e12",
          "--t-end", "0.05"], 0),
    ],
    ids=["coupled-tau-1e-300", "stationary-sigma2-1e-300", "stationary-sigma2-1e300",
         "stationary-alpha-1e-300", "coupled-tau-1e-150", "coupled-tau-1e-152",
         "coupled-tau-1e-153", "coupled-tau-1e-155", "coupled-tau-1e-157", "coupled-tau-1e-159",
         "stationary-alpha-1e-8", "stationary-alpha-1e-10", "stationary-alpha-1e-12",
         "stationary-alpha-1e-30", "stationary-sigma2-1e25", "stationary-sigma2-1e29",
         "stationary-sigma2-1e31", "stationary-unbalanced-alpha-1e-300",
         "stationary-mean-overflows", "stationary-rate-overflows",
         "stationary-drive-overflows", "orbit-interval-holds-every-node-ex1",
         "orbit-interval-holds-every-node-ex2", "huge-state-meets-stiff-step"],
)
def test_extreme_admissible_parameters_end_without_a_warning(tmp_path, args, code):
    # a coupled height load of about 1e302 drifted the mean height until
    # the solves' checks overflowed, with eight warnings and exit 3; at tau
    # from 1e-150 to 1e-159 the roundoff residue of the balanced mean height
    # load moved the height by up to 4e132 per step, and the run exited 3
    # with "state is already at or below the threshold"; the
    # stationary curvature of a steep profile overflowed with a warning;
    # the stationary exponential pair of an interval cancelled as lam*L ->
    # 0, so weak evaporation gave a wrong profile with exit 0 or failed the
    # residual check with exit 3; and a stationary mean (B - A)/alpha, an
    # evaporation rate sqrt(alpha/sigma) or a drive B/sigma that overflows is
    # refused: the last two warned and exited 3 with a residual of nan; and
    # an orbit search whose distinguished interval holds every node (all
    # three junctions within the first grid spacing) took the maximum of
    # an empty difference, a ValueError traceback with exit 1; and a huge
    # state met a stiff step, whose solve check overflowed in diag*x with
    # seven warnings and exited 3 with a residual of nan
    child = run_child("-m", "rupturesim.cli", *args, "--out", str(tmp_path / "run"), timeout=30)
    assert child.returncode == code, child.stderr
    assert "Traceback" not in child.stderr
    assert "Warning" not in child.stderr


# one --set override per run: an edge value on a model parameter, or a
# grid too small for the junctions to sit on distinct nodes.  Every preset
# runs the set-up commands and a run to an end time; the decoupled presets
# also run an orbit search and a run without an end time, which draw
# numerics.dt and strength edges and the finest grid too.  verify and
# coupled runs without an end time are left out: coupled runs that cannot
# rupture and a clock that stops in a coupled gap still hang (ROADMAP item K)
fuzzed_overrides = st.one_of(
    st.builds(
        "{}={}".format,
        st.sampled_from(("sigma1", "sigma2", "tau", "alpha", "eta_c", "eta_a",
                         "forcing_offset", "omega")),
        st.sampled_from(("1e-300", "1e300", "-0.0", "1e-12", "1e12")),
    ),
    st.sampled_from((4, 5, 7)).map("numerics.grid_points={}".format),
)
decoupled_overrides = st.one_of(
    st.sampled_from(("1e-300", "1e-12", "0.5", "1e300")).map("numerics.dt={}".format),
    st.sampled_from(("[0,0,0]", "[-1,-1,-1]", "[1e300,1e300,1e300]", "[-1e300,1,1]")).map(
        "jump_strengths={}".format
    ),
    st.just("numerics.grid_points=65536"),
)
fuzzed_runs = st.one_of(
    st.tuples(
        st.sampled_from(sorted(PRESETS)),
        st.sampled_from((["bounds"], ["stationary"], ["simulate", "--t-end", "0.05"])),
        fuzzed_overrides,
    ),
    st.tuples(
        st.sampled_from(("ex1", "ex2")),
        st.sampled_from((["find-periodic"], ["simulate", "--max-events", "1"])),
        st.one_of(fuzzed_overrides, decoupled_overrides),
    ),
)


@settings(max_examples=72, deadline=None, derandomize=True)
@given(fuzzed_runs)
def test_fuzzed_overrides_end_in_a_documented_exit_code(run):
    # each run in a child process under a timeout, so that a hang fails
    # the example instead of the suite
    preset, command, override = run
    with tempfile.TemporaryDirectory() as out:
        args = [command[0], "--preset", preset, "--set", override, *command[1:], "--out", out]
        child = run_child("-m", "rupturesim.cli", *args, timeout=20)
    assert child.returncode in (0, 1, 2, 3), child.stderr
    assert "Traceback" not in child.stderr
    assert "Warning" not in child.stderr
    assert child.returncode != 1 or any(
        message in child.stderr for message in ("model violation", "verify:")
    ), child.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--preset", "ex1", "--set", "numerics.dt=5e-324", "--max-events", "1"],
        ["simulate", "--preset", "ex1", "--set", "numerics.dt=1e-310", "--max-events", "1"],
        ["simulate", "--preset", "ex1", "--set", "numerics.dt=2e-308", "--max-events", "1"],
        ["simulate", "--preset", "ex2", "--set", "numerics.dt=5e-324", "--max-events", "1"],
        ["simulate", "--preset", "ex3", "--set", "numerics.dt=1e-310", "--t-end", "1"],
        ["find-periodic", "--preset", "ex1", "--set", "numerics.dt=5e-324"],
        ["verify", "--preset", "ex1", "--set", "numerics.dt=5e-324"],
    ],
    ids=["ex1-5e-324", "ex1-1e-310", "ex1-2e-308", "ex2", "ex3", "find-periodic", "verify"],
)
def test_subnormal_time_step_is_a_config_error(tmp_path, args):
    # the step counts overflowed to infinity and ended in a traceback
    child = run_child("-m", "rupturesim.cli", *args, "--out", str(tmp_path / "run"), timeout=30)
    assert child.returncode == 2, child.stderr
    assert child.stderr.startswith("configuration error: numerics.dt")


@pytest.mark.parametrize(
    "args, code",
    [
        (["simulate", "--preset", "ex1", "--set", "sigma2=1e12", "--max-events", "1"], 0),
        (["find-periodic", "--preset", "ex1", "--set", "eta_a=1e300"], 1),
    ],
    ids=["sigma2-1e12", "eta_a-1e300"],
)
def test_decoupled_gaps_jump_down_to_eta_c(tmp_path, args, code):
    # the jumps certified down to eta_c + event_tol*eta_a, with a margin on
    # the scale max|load|/alpha = 611: at sigma2 = 1e12 the flat state then
    # decayed from 3e-8 to eta_c = 3e-14 one probed step at a time, for
    # 12 s, and at eta_a = 1e300 no state lay above the threshold to jump
    # from, so the search never ended.  Both take about 0.3 s; the timeout
    # leaves room for a slow host
    out = tmp_path / "run"
    child = run_child("-m", "rupturesim.cli", *args, "--out", str(out), timeout=3)
    assert child.returncode == code, child.stderr
    if code == 0:
        events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
        assert [event["t"] for event in events] == [26.515399999951544]
    else:
        assert child.stderr.startswith("model violation: rupture touched intervals (0, 1, 2)")


def test_a_fine_time_step_finds_the_orbit_in_a_few_subsolution_counts(tmp_path):
    # the subsolution raised the rounded 1 + alpha*dt to -steps, whose rate
    # is 8.9e-5 relatively off the estimate's log1p(alpha*dt) at dt = 1e-12,
    # so each safe-step count walked down some 1e5 steps one at a time: 36
    # million closed forms and 9 s.  It takes about 0.4 s; the timeout
    # leaves room for a slow host
    out = tmp_path / "run"
    args = ["find-periodic", "--preset", "ex1", "--set", "numerics.dt=1e-12", "--out", str(out)]
    child = run_child("-m", "rupturesim.cli", *args, timeout=5)
    assert child.returncode == 0, child.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] and len(report["iterates"]) == 33


def test_simulate_under_a_positive_forcing_integral_still_ruptures(tmp_path):
    out = tmp_path / "run"
    args = ["--preset", "ex2", "--set", "forcing_offset=2.94", "--max-events", "3"]
    assert main(["simulate", *args, "--out", str(out)]) == 0
    assert len((out / "events.jsonl").read_text().splitlines()) == 3


def test_simulate_without_limits_stops_at_max_ruptures(tmp_path):
    out = tmp_path / "run"
    args = ["--preset", "ex1", "--set", "numerics.max_ruptures=3"]
    assert main(["simulate", *args, "--out", str(out)]) == 0
    assert read_json(out / "report.json")["events"] == 3
    assert len((out / "events.jsonl").read_text().splitlines()) == 3


def test_simulate_past_the_horizon_is_a_numerical_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(rupture, "rupture_horizon", lambda config, eta0: 5 * config.numerics.dt)
    out = tmp_path / "run"
    assert main(["simulate", "--preset", "ex1", "--max-events", "1", "--out", str(out)]) == 3


@pytest.mark.parametrize(
    "args",
    [
        ["find-periodic", "--preset", "ex1", "--max-iter", "0"],
        ["simulate", "--preset", "ex1", "--t-end", "nan"],
        ["simulate", "--preset", "ex1", "--eta0", "const:nan"],
        ["simulate", "--preset", "ex1", "--eta0", "const:inf"],
        ["find-periodic", "--preset", "ex1", "--fp-tol", "inf"],
        ["simulate", "--preset", "ex1", "--max-events", "-3"],
        ["simulate", "--preset", "ex1", "--max-events", "0"],
        ["simulate", "--preset", "ex1", "--t-end", "-1"],
        ["simulate", "--preset", "ex1", "--t-end", "0"],
        ["find-periodic", "--preset", "ex1", "--fp-tol", "-1"],
        ["verify", "--preset", "ex1", "--fp-tol", "-1"],
        ["simulate", "--preset", "ex1", "--set", "eta_a=1e999", "--eta0", "const:0.03",
         "--max-events", "2"],
        ["find-periodic", "--preset", "ex1", "--set", "numerics.fp_tol=1e999"],
        ["simulate", "--preset", "ex1", "--set", "numerics.event_tol=1e999"],
        *(
            [command, "--preset", "ex1", "--set", "jump_strengths=[1e308,1e308,1e308]"]
            for command in ("simulate", "find-periodic", "verify", "bounds", "stationary")
        ),
        ["bounds", "--preset", "ex1", "--set", "jump_strengths=[1e308,-1e308,0]",
         "--set", "tau=0.1"],
        ["simulate", "--preset", "ex1", "--set", "jump_strengths=[1e306,1e306,1e306]",
         "--set", "forcing_offset=3e306", "--max-events", "1"],
    ],
    ids=[
        "max-iter-0", "t-end-nan", "eta0-nan", "eta0-inf", "fp-tol-inf",
        "max-events-negative", "max-events-0", "t-end-negative", "t-end-0",
        "find-periodic-fp-tol-negative", "verify-fp-tol-negative",
        "eta-a-inf", "numerics-fp-tol-inf", "numerics-event-tol-inf",
        "simulate-strength-sum-inf", "find-periodic-strength-sum-inf",
        "verify-strength-sum-inf", "bounds-strength-sum-inf", "stationary-strength-sum-inf",
        "scaled-strengths-inf", "load-inf",
    ],
)
def test_out_of_range_inputs_are_config_errors(tmp_path, capsys, args):
    assert main([*args, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith("configuration error:")


def test_malformed_fixed_profile_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "orbit"
    assert main(["find-periodic", "--preset", "ex1", "--out", str(out)]) == 0
    (out / "fixed_profile.csv").write_text("x,value\n0,not-a-number\n")
    capsys.readouterr()
    assert main(["verify", "--preset", "ex1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("configuration error:")


def test_fixed_profile_from_another_grid_is_a_config_error(tmp_path, capsys):
    # the profile has the right number of rows, but its x column belongs to
    # omega = 1; this once ran the two-period check and exited 1
    out = tmp_path / "orbit"
    assert main(["find-periodic", "--preset", "ex1", "--out", str(out)]) == 0
    capsys.readouterr()
    other = ["--set", "omega=1.5", "--set", "junctions=[0.15,0.9,1.35]"]
    assert main(["verify", "--preset", "ex1", *other, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "fixed_profile.csv" in err


def test_empty_fixed_profile_is_a_config_error_without_a_warning(tmp_path):
    out = tmp_path / "orbit"
    out.mkdir()
    (out / "fixed_profile.csv").write_text("x,value\n")
    child = run_child("-m", "rupturesim.cli", "verify", "--preset", "ex1", "--out", str(out),
                      timeout=30)
    assert child.returncode == 2
    assert child.stderr.startswith("configuration error:")
    assert "Warning" not in child.stderr


@pytest.mark.parametrize(
    "data", [b"{bad", b"[1, 2]", b"\xff{"], ids=["malformed", "not-an-object", "not-utf-8"]
)
def test_unreadable_previous_report_is_a_config_error(tmp_path, capsys, data):
    out = tmp_path / "orbit"
    out.mkdir()
    (out / "report.json").write_bytes(data)
    assert main(["verify", "--preset", "ex1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("configuration error:")


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--config", "missing.json"],
        ["simulate", "--config", "."],
        ["verify", "--preset", "ex1"],
    ],
    ids=["missing-config", "config-is-a-directory", "verify-without-fixed-profile"],
)
def test_input_that_cannot_be_read_is_a_config_error(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    assert main([*args, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "Traceback" not in err


def test_preset_overrides_leave_every_preset_unchanged():
    before = copy.deepcopy(PRESETS)
    configs = {name: preset_config(name) for name in PRESETS}
    for name in PRESETS:
        changed = preset_config(name, (("junctions", [0.2, 0.5, 0.8]), ("numerics.dt", 1e-3)))
        assert changed.junctions == (0.2, 0.5, 0.8) and changed.numerics.dt == 1e-3
    assert PRESETS == before
    assert {name: preset_config(name) for name in PRESETS} == configs


def f_string_csv(header: str, rows) -> bytes:
    """The reference rendering of a profile CSV, one f-string per row."""
    lines = [header, *(f"{x:.17g},{v:.17g}" for x, v in rows)]
    return ("\n".join(lines) + "\n").encode()


def test_profile_csv_bytes_match_the_f_string_writer(tmp_path):
    rng = np.random.default_rng(5)
    edges = np.array([-0.0, 5e-324, 1e17, -1e-17, 0.1, 1.0 / 3.0])
    xs = np.concatenate([rng.uniform(0.0, 1.0, 200), edges])
    scales = 10.0 ** rng.integers(-20, 20, 200)
    values = np.concatenate([rng.standard_normal(200) * scales, edges[::-1]])
    path = tmp_path / "profile.csv"
    write_profile_csv(path, xs, values, "s")
    assert path.read_bytes() == f_string_csv("x,s", zip(xs, values))


def exact_ties(j):
    """Odd integers over 2**j with 18 significant digits: the 18th is a 5,
    so these are exact ties at the 17th, which round half to even."""
    low = -(-(10**17 * 2**j) // 10**j)
    high = min(10**18 * 2**j // 10**j, 2**53)
    return st.integers(low, high - 1).map(lambda m: (m | 1) / 2**j)


# any float64: drawn as a float (biased to edge cases), as a bit pattern or
# as an exact tie
any_float = (
    st.floats()
    | st.integers(0, 2**64 - 1).map(lambda bits: float(np.array(bits, np.uint64).view(np.float64)))
    | st.integers(2, 21).flatmap(exact_ties)
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.lists(any_float, min_size=1, max_size=40))
def test_profile_csv_is_the_f_string_rendering_of_any_float(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("csv") / "profile.csv"
    xs = values[::-1]
    write_profile_csv(path, np.array(xs), np.array(values))
    assert path.read_bytes() == f_string_csv("x,value", zip(xs, values))


def test_profile_csv_renders_rounding_and_notation_edges(tmp_path):
    rng = np.random.default_rng(3)
    # exact ties at the 17th digit, which round half to even
    ties = list((rng.integers(2 * 10**15, 9 * 10**15 // 2, 2000) * 2 + 1) / 4.0)
    # both neighbours of each power of ten, which covers both ends of the
    # fixed notation, 1e-4 and 1e17
    powers = []
    for p in range(-5, 18):
        below = above = float(f"1e{p}")
        for _ in range(3):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, math.inf)
            powers += [below, above]
        powers.append(float(f"1e{p}"))
    integers = list(rng.integers(10**16, 10**17, 2000).astype(float))
    edges = [1e16, 1e17, 99999999999999984.0, 9.9999999999999995e-05, 9.99999999999999912e-05]
    values = np.array(ties + powers + integers + edges)
    values = np.concatenate([values, -values])
    path = tmp_path / "profile.csv"
    write_profile_csv(path, values, values[::-1])
    assert path.read_bytes() == f_string_csv("x,value", zip(values, values[::-1]))


def test_csv_templates_follow_the_x_column_and_the_name(tmp_path):
    # columns that differ in one value, in the sign of a zero or in length
    # must never share a cached template
    rng = np.random.default_rng(11)
    base = np.arange(32) / 32.0
    nudged = base.copy()
    nudged[7] = np.nextafter(nudged[7], 1.0)
    signed = base.copy()
    signed[0] = -0.0
    columns = [base, nudged, signed, base[:31]]
    path = tmp_path / "profile.csv"
    for _ in range(2):
        for xs in columns:
            for name in ("value", "s"):
                values = rng.standard_normal(len(xs))
                write_profile_csv(path, xs, values, name)
                assert path.read_bytes() == f_string_csv(f"x,{name}", zip(xs, values))


def test_profile_csv_rejects_a_length_mismatch(tmp_path):
    xs = np.arange(8) / 8.0
    for count in (7, 9):
        with pytest.raises(ValueError, match="values for 8 x positions"):
            write_profile_csv(tmp_path / "profile.csv", xs, np.ones(count))


def test_simulate_builds_the_csv_template_once(tmp_path):
    # seven profiles on one grid: the x column is rendered for the first only
    cli._x_column.cache_clear()
    args = ["simulate", "--preset", "ex1", "--set", "numerics.grid_points=256"]
    assert main(args + ["--max-events", "3", "--out", str(tmp_path / "run")]) == 0
    info = cli._x_column.cache_info()
    assert (info.misses, info.hits) == (1, 6)


def test_cli_csvs_are_the_f_string_rendering_of_their_values(tmp_path):
    # %.17g round-trips, so parsing a file and rendering it again with the
    # reference writer must give back its exact bytes
    coarse_ex1 = ["--preset", "ex1", "--set", "numerics.grid_points=256"]
    runs = {
        "ex1": ["simulate", *coarse_ex1, "--max-events", "3"],
        "ex3": ["simulate", "--preset", "ex3", "--max-events", "3"],
        "ex2": ["stationary", "--preset", "ex2"],
        "orbit": ["find-periodic", "--preset", "ex1"],
        "fine-ex1": ["simulate", "--preset", "ex1", "--set", "numerics.grid_points=8192",
                     "--max-events", "1"],
    }
    checked = 0
    for name, args in runs.items():
        out = tmp_path / name
        assert main(args + ["--out", str(out)]) == 0
        for path in sorted(out.glob("*.csv")):
            header, *lines = path.read_text().splitlines()
            assert header in ("x,value", "x,s")
            rows = [tuple(float(cell) for cell in line.split(",")) for line in lines]
            assert path.read_bytes() == f_string_csv(header, rows), path.name
            checked += 1
    # ex1: 3 pre, 3 post, final; ex3: 3 pre, 3 post, 3 post h, 3 finals;
    # orbit: fixed and post-fixed; fine ex1: pre, post, final
    assert checked == 7 + 12 + 1 + 2 + 3
