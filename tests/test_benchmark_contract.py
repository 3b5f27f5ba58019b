"""The names the benchmark harness under ``perfbench/`` reaches in the package.

The harness patches the functions listed in ``tracing.TRACED`` and calls
``setup_probe.set_up`` and the ``rs.*`` names of ``workloads.py``; a renamed
or deleted helper would otherwise only show as an ``AttributeError`` when
the benchmark runs.  A step taken other than through ``solver.advance``
would not fail at all, only make the per-layer counts read 0, so the
counts of one traced run are checked against each other too.
"""
import importlib
import re
import sys
from pathlib import Path

import pytest

import rupturesim
from rupturesim.cli import preset_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield {name: importlib.import_module(name) for name in ("tracing", "setup_probe")}
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_function_resolves(harness):
    for home, names in harness["tracing"].TRACED.items():
        module = importlib.import_module(home)
        for name in names:
            assert callable(getattr(module, name, None)), f"{home}.{name}"


def test_workload_names_resolve():
    source = (PERFBENCH / "workloads.py").read_text()
    names = set(re.findall(r"\brs\.(\w+)", source))
    assert names
    assert [name for name in sorted(names) if not hasattr(rupturesim, name)] == []
    imported = re.findall(r"^from rupturesim\.(\w+) import (.+)$", source, re.MULTILINE)
    for module, names in imported:
        home = importlib.import_module(f"rupturesim.{module}")
        for name in names.split(","):
            assert callable(getattr(home, name.strip(), None)), f"rupturesim.{module}.{name}"


def test_setup_probe_runs_on_ex1(harness, tmp_path):
    args = ["find-periodic", "--preset", "ex1", "--fp-tol", "1e-06",
            "--eta0", "const:0.03", "--out", str(tmp_path)]
    config, eta0 = harness["setup_probe"].set_up(args)
    assert config.junctions == (0.1, 0.6, 0.9)
    assert eta0.grid.n == config.numerics.grid_points


@pytest.mark.parametrize("preset, solves_per_step", [("ex1", 1), ("ex3", 2)])
def test_tracer_counts_every_step(harness, preset, solves_per_step):
    tracing = harness["tracing"]
    config = preset_config(preset)
    eta0 = rupturesim.constant_field(rupturesim.build_grid(config), config.eta_a)
    start = rupturesim.CoupledState.from_thickness(eta0) if config.mode == "coupled" else eta0
    tracer = tracing.Tracer()
    with tracer.installed():
        events, _ = rupturesim.run_with_rupture(config, start, max_events=2)
    metrics = tracing.layer_metrics(tracer.spans, config.numerics.grid_points)
    steps = metrics["solver.step.calls"]
    assert len(events) == 2
    assert steps == (
        metrics["rupture.accepted_steps"] + len(events) + metrics["rupture.bisection_steps"]
    )
    assert metrics["solver.solve.calls"] == solves_per_step * steps
    assert metrics["rupture.bisection_steps"] > 0
