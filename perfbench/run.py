"""rupturesim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload orbit-ex1 --seed 0 --seconds 25 --trace 0

With ``--trace 0`` it measures the end-to-end metrics with tracing off:
set-up time in a fresh interpreter, the workload's CLI commands in fresh
interpreters (wall time and peak RSS), and the workload's library call in
this warm process (events per second).  With ``--trace 1`` it runs the
workload in-process with spans around every layer and reports per-layer
counts and self times instead.  Either way every output is checked, and the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a table
for people.  The metric names and units come from ``BENCHMARK.json``.

The package is imported from ``src/`` of the checkout, and all scratch
output goes to ``.perfbench_work/`` there, which is removed at exit.
WORKLOADS.md explains the workloads and metrics.
"""
import os
import sys
from pathlib import Path

# Pinned before numpy loads; the children inherit them.
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "rupturesim" / "__init__.py").is_file():
    sys.exit(f"no rupturesim package under {SRC}")
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy  # noqa: E402
import rupturesim.cli as cli  # noqa: E402
import scipy  # noqa: E402
from setup_probe import set_up  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, check, cli_fingerprint, contraction_rate, events_of, initial_spec,
    library_fingerprint, run_library, same,
)

WORK = ROOT / ".perfbench_work"
HARD_LIMIT_S = 170.0  # the whole run must end within 180 s
INVOCATION_TIMEOUT_S = 60.0
IMPORT_PROBES = 3
LARGE_GRID_ARGS = ["simulate", "--preset", "ex1", "--set", "numerics.grid_points=16384",
                   "--max-events", "1"]
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
# Deterministic per-layer counts: taken once, and every traced unit must repeat them.
COUNTS = ("solver.solve.calls", "solver.solve.computed_bytes", "solver.step.calls",
          "rupture.accepted_steps", "rupture.bisection_steps", "periodic.maps",
          "periodic.search.solves", "stationary.calls", "cli.files_written", "cli.bytes_written")

STARTED = time.monotonic()


def time_left(cap: float = INVOCATION_TIMEOUT_S) -> float:
    return max(1.0, min(cap, HARD_LIMIT_S - (time.monotonic() - STARTED)))


class Child(NamedTuple):
    problems: list[str]
    start: float  # monotonic time just before the child was created
    wall_s: float
    peak_rss_mib: float
    stdout: str
    stderr: str


def spawn(argv: list[str]) -> Child:
    """Run a child in the work directory to completion, under a timeout."""
    out_path, err_path = WORK / "child.out", WORK / "child.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=WORK, env=CHILD_ENV, stdout=out, stderr=err)
        expired = threading.Event()

        def expire():
            expired.set()
            proc.kill()

        timer = threading.Timer(time_left(), expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    stdout, stderr = out_path.read_text(), err_path.read_text()
    problems = []
    if expired.is_set():
        problems.append("timed out")
    elif proc.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        problems.append(f"exit {proc.returncode} {tail[0]}")
    return Child(problems, start, wall, usage.ru_maxrss / 1024.0, stdout, stderr)


@contextmanager
def deadline(seconds: float):
    """Raise TimeoutError in this (main) thread after ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def guarded(call):
    """``(result, problems)`` of an in-process call made under the deadline."""
    try:
        with deadline(time_left()):
            return call(), []
    except Exception as exc:  # the benchmark keeps running and counts it
        traceback.print_exc(file=sys.stdout)
        return None, [f"{type(exc).__name__}: {exc}"]


class Runner:
    """One workload and seed.  Each method is one invocation: it counts it as
    attempted, checks its outputs, and returns its measurement or a false
    value when it failed."""

    def __init__(self, workload, seed: int, reference: dict | None) -> None:
        self.workload = workload
        self.eta0_spec = initial_spec(seed)
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.out = WORK / "out"
        self.first_args = workload.commands(self.eta0_spec, self.out)[0]
        self.config, self.eta0 = set_up(self.first_args)
        self.fingerprint = None  # the run's first, which every later one must repeat

    def record(self, what: str, problems: list[str]) -> bool:
        """Count one invocation; a failure is a non-zero exit, a timeout, an
        exception or a failed output check."""
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(problems)}")
        return not problems

    def check(self, what: str, fingerprint: dict | None, problems: list[str]) -> bool:
        if fingerprint is not None:
            problems += check(self.workload, fingerprint, self.config, self.eta0, self.reference)
            if self.fingerprint is None:
                self.fingerprint = fingerprint
                print(f"fingerprint {json.dumps(fingerprint)}")
            elif not same(fingerprint, self.fingerprint):
                problems.append("fingerprint differs from this run's first")
        return self.record(what, problems)

    def fresh_out(self) -> Path:
        shutil.rmtree(self.out, ignore_errors=True)
        return self.out

    def setup(self):
        """Seconds from creating an interpreter until the model is ready."""
        child = spawn([sys.executable, str(HERE / "setup_probe.py"), *self.first_args])
        try:
            ready = float(child.stdout.split()[-1])
        except (IndexError, ValueError):
            child.problems.append("no ready time printed")
        return self.record("set-up", child.problems) and ready - child.start

    def cli(self):
        """``(wall_s, peak_rss_mib)`` of the workload's CLI commands."""
        out, wall, rss, problems = self.fresh_out(), 0.0, 0.0, []
        for argv in self.workload.commands(self.eta0_spec, out):
            child = spawn([sys.executable, "-m", "rupturesim.cli", *argv])
            wall, rss, problems = wall + child.wall_s, max(rss, child.peak_rss_mib), child.problems
            if problems:
                break
        fingerprint = None if problems else cli_fingerprint(self.workload, out)
        return self.check("cli", fingerprint, problems) and (wall, rss)

    def library(self):
        """``(seconds, events)`` of one warm library call."""
        def call():
            start = time.perf_counter()
            result = run_library(self.workload, self.config, self.eta0)
            return time.perf_counter() - start, result

        timed, problems = guarded(call)
        fingerprint = None
        if timed is not None:
            fingerprint = library_fingerprint(self.workload, self.config, timed[1])
        return self.check("library", fingerprint, problems) and (timed[0], events_of(fingerprint))

    def traced(self):
        """Per-layer metrics of set-up plus the CLI commands, run in-process
        with every layer traced."""
        out, tracer = self.fresh_out(), Tracer()

        def call():
            with tracer.installed():
                set_up(self.first_args)
                return [cli.main(argv) for argv in self.workload.commands(self.eta0_spec, out)]

        codes, problems = guarded(call)
        if codes is not None and any(codes):
            problems.append(f"exit codes {codes}")
        fingerprint = None if problems else cli_fingerprint(self.workload, out)
        if not self.check("traced", fingerprint, problems):
            return None
        metrics = layer_metrics(tracer.spans, self.config.numerics.grid_points)
        files = [p for p in out.iterdir() if p.is_file()]
        metrics["cli.files_written"] = len(files)
        metrics["cli.bytes_written"] = sum(p.stat().st_size for p in files)
        metrics["periodic.contraction_rate"] = contraction_rate(out) if self.workload.orbit else 0.0
        return metrics

    def import_probe(self):
        """``(import rupturesim, summed self time of scipy modules)`` in
        seconds, from ``-X importtime`` in a fresh interpreter."""
        child = spawn([sys.executable, "-X", "importtime", "-c", "import rupturesim"])
        total, scipy_us = None, 0
        for line in child.stderr.splitlines():
            fields = line.partition("import time:")[2].split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            name = fields[2].strip()
            if name == "rupturesim":
                total = int(fields[1])
            if name.split(".")[0] == "scipy":
                scipy_us += int(fields[0])
        if total is None and not child.problems:
            child.problems.append("no import time for rupturesim")
        return self.record("import probe", child.problems) and (total / 1e6, scipy_us / 1e6)

    def large_grid_failures(self) -> int:
        """1 when the first n = 16384 step fails, as it does while the solver
        residual check is scaled by the right-hand side.  A known defect,
        kept out of ``failed`` and reported as a metric."""
        child = spawn([sys.executable, "-m", "rupturesim.cli", *LARGE_GRID_ARGS,
                       "--out", str(self.fresh_out())])
        print(f"large-grid probe: {'; '.join(child.problems) or 'ok'}")
        return int(bool(child.problems))


def rounds(seconds: float):
    """At least one round, then more until ``seconds`` have passed or the
    hard limit draws near."""
    begin = time.monotonic()
    yield
    while time.monotonic() - begin < seconds and time.monotonic() - STARTED < HARD_LIMIT_S - 30:
        yield


def measure(runner: Runner, seconds: float) -> dict:
    samples = {"setup_s": [], "wall_s": [], "events_per_s": [], "peak_rss_mb": []}
    runner.library()  # warm-up
    for _ in rounds(seconds):
        setup = runner.setup()
        if setup:
            samples["setup_s"].append(setup)
        cli_pass = runner.cli()
        if cli_pass:
            samples["wall_s"].append(cli_pass[0])
            samples["peak_rss_mb"].append(cli_pass[1])
        library = runner.library()
        if library:
            samples["events_per_s"].append(library[1] / library[0])
    return samples


def measure_traced(runner: Runner, seconds: float) -> dict:
    samples: dict[str, list] = {"cli.import_s": [], "cli.import.scipy_s": []}
    for _ in range(IMPORT_PROBES):
        probe = runner.import_probe()
        if probe:
            samples["cli.import_s"].append(probe[0])
            samples["cli.import.scipy_s"].append(probe[1])
    samples["solver.large_grid_failures"] = [runner.large_grid_failures()]
    runner.library()  # warm-up
    untraced, counts = [], None
    for _ in rounds(seconds):
        library = runner.library()
        if library:
            untraced.append(library[0])
        layers = runner.traced()
        if not layers:
            continue
        unit_counts = {name: layers[name] for name in COUNTS}
        if counts is None:
            counts = unit_counts
        elif unit_counts != counts:
            runner.record("traced counts", [f"counts changed: {unit_counts} != {counts}"])
        for name, value in layers.items():
            values = samples.setdefault(name, [])
            if name not in COUNTS or not values:
                values.append(value)
    samples["library.untraced_s"] = untraced
    if untraced and samples.get("library_s"):
        samples["trace.overhead_ratio"] = [
            statistics.median(samples["library_s"]) / statistics.median(untraced)]
    return samples


def report(samples: dict, units: dict) -> dict:
    """Print medians, sample counts and quartiles; return the medians."""
    medians = {}
    for name, values in samples.items():
        if not values:
            continue
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        medians[name] = median
        print(f"  {name:30s} {median:14.6g} {units.get(name, ''):6s} n={len(values):<3d} "
              f"q1={q1:.6g} q3={q3:.6g}")
    return medians


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    reference = None
    if args.seed == 0:
        reference = json.loads((HERE / "reference.json").read_text())[args.workload]

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        runner = Runner(WORKLOADS[args.workload], args.seed, reference)
        print(f"workload {args.workload} seed {args.seed} eta0 {runner.eta0_spec} trace {args.trace}")
        print(f"python {sys.version.split()[0]} numpy {numpy.__version__} scipy {scipy.__version__} "
              f"nproc {os.cpu_count()} threads {THREADS}")
        samples = (measure_traced if args.trace else measure)(runner, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print(f"checks: {runner.attempted - runner.failed}/{runner.attempted} passed, "
          f"fail_ratio {runner.failed / runner.attempted:.6g}")
    medians = report(samples, units)
    missing = [m["name"] for m in wanted if m["name"] not in medians]
    if missing:
        print(f"no successful sample for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": medians[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
