"""Each benchmark workload's seed-0 library call, run and checked as the
harness under ``perfbench/`` runs and checks it: the invariants of
``workloads.check`` and the fingerprint stored in ``reference.json``.  A
change that moves an event time by more than the harness's tolerance fails
here, not only when the benchmark runs.

The harness runs in a child interpreter that writes no bytecode, so that
``perfbench/`` is left as it is and its modules do not join this process:
hypothesis draws from the constants of the modules loaded, so importing
them here would change the examples of every later property test."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rupturesim

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

CHECK = """
import json, sys
from pathlib import Path
perfbench, name, out = sys.argv[1:]
sys.path.insert(0, perfbench)
from setup_probe import set_up
from workloads import WORKLOADS, check, initial_spec, library_fingerprint, run_library
workload = WORKLOADS[name]
reference = json.loads((Path(perfbench) / "reference.json").read_text())[name]
config, eta0 = set_up(workload.commands(initial_spec(0), Path(out))[0])
fingerprint = library_fingerprint(workload, config, run_library(workload, config, eta0))
print(json.dumps(check(workload, fingerprint, config, eta0, reference)))
"""


@pytest.mark.parametrize("name", NAMES)
def test_seed_zero_library_call_matches_the_reference(name, tmp_path):
    src = str(Path(rupturesim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run(
        [sys.executable, "-B", "-c", CHECK, str(PERFBENCH), name, str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout.splitlines()[-1]) == []
