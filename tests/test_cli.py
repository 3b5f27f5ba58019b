import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rupturesim
from rupturesim import cli, rupture, solver
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
        # the first run fills the coupled step tables, the second reuses them
        solver._coupled_tables.cache_clear()
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
    child = run_child(
        "-c",
        "import sys, rupturesim.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


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
    # transient about s is negative, and only this one refuses the run
    for eta_a in ("0.3", "0.14"):
        args = ["simulate", "--preset", "ex1", "--set", "alpha=0", "--set", f"eta_a={eta_a}",
                "--max-events", "1", "--out", str(tmp_path / eta_a)]
        child = run_child("-m", "rupturesim.cli", *args, timeout=30)
        assert child.returncode == 2, child.stderr
        assert "--t-end" in child.stderr


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


def test_simulate_refuses_a_domain_whose_grid_spacing_cannot_be_squared(tmp_path):
    # dx**2 overflowed in the first implicit step and ended in a traceback
    args = ["simulate", "--preset", "ex1", "--set", "omega=1e300", "--max-events", "1"]
    child = run_child("-m", "rupturesim.cli", *args, "--out", str(tmp_path / "run"), timeout=30)
    assert child.returncode == 2, child.stderr
    assert "Traceback" not in child.stderr
    assert "grid spacing" in child.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["bounds", "--preset", "ex1", "--set", "forcing_offset=-3e-14"],
        ["simulate", "--preset", "ex1", "--set", "forcing_offset=-3e-14", "--max-events", "1"],
        ["find-periodic", "--preset", "ex1", "--set", "forcing_offset=-3e-14"],
        ["simulate", "--preset", "ex2", "--set", "forcing_offset=-0.18", "--max-events", "1"],
        ["simulate", "--preset", "ex1", "--set", "jump_strengths=[1e308,1e308,1e308]",
         "--max-events", "1"],
    ],
    ids=["bounds", "simulate-ex1", "find-periodic", "simulate-ex2", "strength-sum-overflows"],
)
def test_offset_that_cancels_the_threshold_ends_without_a_traceback(tmp_path, args):
    # offset/alpha + eta_c == 0 made the rupture-time lower bound divide by
    # zero, which ended in a ZeroDivisionError traceback and exit 1; jump
    # strengths whose sum overflows ended in an OverflowError from validate
    child = run_child("-m", "rupturesim.cli", *args, "--out", str(tmp_path / "run"), timeout=60)
    assert child.returncode in (0, 1, 2, 3), child.stderr
    assert "Traceback" not in child.stderr


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
    ],
    ids=[
        "max-iter-0", "t-end-nan", "eta0-nan", "eta0-inf", "fp-tol-inf",
        "max-events-negative", "max-events-0", "t-end-negative", "t-end-0",
        "find-periodic-fp-tol-negative", "verify-fp-tol-negative",
        "eta-a-inf", "numerics-fp-tol-inf", "numerics-event-tol-inf",
        "simulate-strength-sum-inf", "find-periodic-strength-sum-inf",
        "verify-strength-sum-inf", "bounds-strength-sum-inf", "stationary-strength-sum-inf",
        "scaled-strengths-inf",
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
