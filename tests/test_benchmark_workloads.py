"""Each benchmark workload's library call, run and checked as the harness
under ``perfbench/`` runs and checks it: at seed 0 the invariants of
``workloads.check`` and the fingerprint stored in ``reference.json``, and
at seed 7, a sine start, the invariants alone.  A change that moves an
event time by more than the harness's tolerance, or that holds only at the
flat start, fails here, not only when the benchmark runs.

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
perfbench, name, seed, out = sys.argv[1:]
sys.path.insert(0, perfbench)
from setup_probe import set_up
from workloads import WORKLOADS, check, initial_spec, library_fingerprint, run_library
workload, seed = WORKLOADS[name], int(seed)
reference = json.loads((Path(perfbench) / "reference.json").read_text())[name] if seed == 0 else None
config, eta0 = set_up(workload.commands(initial_spec(seed), Path(out))[0])
fingerprint = library_fingerprint(workload, config, run_library(workload, config, eta0))
print(json.dumps(check(workload, fingerprint, config, eta0, reference)))
"""


def check_library_call(name, seed, out):
    """The violations ``workloads.check`` finds in the workload's library
    call at ``seed``, against the stored reference at seed 0 only."""
    src = str(Path(rupturesim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run(
        [sys.executable, "-B", "-c", CHECK, str(PERFBENCH), name, str(seed), str(out)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", NAMES)
def test_seed_zero_library_call_matches_the_reference(name, tmp_path):
    assert check_library_call(name, 0, tmp_path / "out") == []


@pytest.mark.parametrize("name", NAMES)
def test_seed_seven_library_call_keeps_the_invariants(name, tmp_path):
    assert check_library_call(name, 7, tmp_path / "out") == []
