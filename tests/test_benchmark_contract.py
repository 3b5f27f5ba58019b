"""The names the benchmark harness under ``perfbench/`` reaches in the package.

The harness patches the functions listed in ``tracing.TRACED`` and calls
``setup_probe.set_up`` and the ``rs.*`` names of ``workloads.py``; a renamed
or deleted helper would otherwise only show as an ``AttributeError`` when
the benchmark runs.
"""
import importlib
import re
import sys
from pathlib import Path

import pytest

import rupturesim

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
