"""Workload definitions, seeded inputs, library calls and output checks.

A fingerprint is the part of a workload's answer that must not move under
an optimisation: event times, reset intervals, and for the orbit search the
period, map count and the converged and verified flags.  Seed 0 runs the
paper's flat start, and its fingerprint must match ``reference.json`` within
``TIME_TOL`` on times (counts, intervals and flags exactly).  Every seed,
seed 0 included, must also satisfy the invariants in :func:`check`.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import rupturesim as rs
from rupturesim.periodic import distinguished_interval, splice

FP_TOL = 1.0e-6
MAX_ITER = 50  # the CLI's default for `find-periodic`
VERIFY_TOL = 1.0e-5  # the CLI's default for `verify`
FLAT_START_PERIOD = 0.020974  # ex1 orbit period from the flat start
TIME_TOL = 1.0e-9  # far above roundoff, far below the 1e-7 bisection resolution


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    sets: tuple[str, ...]
    max_events: int | None  # None: orbit search, then verification

    @property
    def orbit(self) -> bool:
        return self.max_events is None

    def commands(self, eta0: str, out: Path) -> list[list[str]]:
        """CLI argument lists, run in order against one output directory."""
        source = ["--preset", self.preset]
        for override in self.sets:
            source += ["--set", override]
        if self.orbit:
            return [
                ["find-periodic", *source, "--fp-tol", repr(FP_TOL), "--eta0", eta0, "--out", str(out)],
                ["verify", *source, "--out", str(out)],
            ]
        return [["simulate", *source, "--max-events", str(self.max_events),
                 "--eta0", eta0, "--out", str(out)]]


# Why each workload exists is recorded in WORKLOADS.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("orbit-ex1", "ex1", (), None),
        Workload("coupled-ex3", "ex3", (), 30),
        Workload("fine-ex1", "ex1", ("numerics.grid_points=8192",), 10),
    )
}


def initial_spec(seed: int) -> str:
    """The ``--eta0`` start for a seed.

    Seed 0 is the flat start at the reset level that the reference
    fingerprints record.  Other seeds draw a sine start from a band on
    which every workload converges and passes its checks.
    """
    if seed == 0:
        return "const:0.03"
    rng = random.Random(seed)
    base = rng.uniform(0.030, 0.035)
    amplitude = rng.uniform(0.008, 0.012)
    return f"const_plus_sine:{base:.6f},{amplitude:.6f},{rng.randint(2, 5)}"


def run_library(workload: Workload, config, eta0):
    """The workload's library call; its result goes to
    :func:`library_fingerprint`."""
    if workload.orbit:
        report = rs.find_periodic(config, eta0, fp_tol=FP_TOL, max_iter=MAX_ITER)
        return report, rs.verify_periodic(config, report.fixed_profile, VERIFY_TOL)
    state = eta0
    if config.mode == "coupled":
        grid = eta0.grid
        state = rs.CoupledState(rs.constant_field(grid, 0.0), rs.Field(grid, eta0.values.copy(), 0.0))
    events, _ = rs.run_with_rupture(config, state, max_events=workload.max_events)
    return events


def events_of(fingerprint: dict) -> int:
    """Events located: one per map, plus the two verification events."""
    return fingerprint["maps"] + 2 if "maps" in fingerprint else fingerprint["events"]


def library_fingerprint(workload: Workload, config, result) -> dict:
    if workload.orbit:
        report, verified = result
        index = distinguished_interval(rs.solve_stationary(config), config)
        return orbit_fingerprint([t for _, t, _ in report.iterates], index,
                                 report.period, report.converged, verified)
    return {
        "event_times": [e.time for e in result],
        "reset_intervals": [list(e.reset_intervals) for e in result],
        "events": len(result),
    }


def orbit_fingerprint(times, index, period, converged, verified) -> dict:
    return {
        "event_times": list(times),
        "reset_intervals": [[index]],
        "period": period,
        "maps": len(times),
        "converged": converged,
        "verified": verified,
    }


def cli_fingerprint(workload: Workload, out: Path) -> dict:
    """Fingerprint read back from the files the CLI wrote."""
    if workload.orbit:
        report = json.loads((out / "report.json").read_text())
        verified = json.loads((out / "verify_report.json").read_text())["verified"]
        return orbit_fingerprint([row["t_r"] for row in report["iterates"]],
                                 report["distinguished_interval"], report["period"],
                                 report["converged"], verified)
    records = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
    return {
        "event_times": [r["t"] for r in records],
        "reset_intervals": [r["reset_intervals"] for r in records],
        "events": len(records),
    }


def contraction_rate(out: Path) -> float:
    """Geometric-mean ratio of successive sup-norm changes over the last four
    return-map applications of a ``find-periodic`` output directory."""
    diffs = [row["sup_diff"] for row in json.loads((out / "report.json").read_text())["iterates"]]
    return (diffs[-1] / diffs[-5]) ** 0.25 if len(diffs) >= 5 else 0.0


def same(a, b) -> bool:
    """Equal, with floats compared to ``TIME_TOL``."""
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) and abs(a - b) <= TIME_TOL
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


def check(workload: Workload, fingerprint: dict, config, eta0, reference: dict | None) -> list[str]:
    """Invariants that hold for every seed, and the reference match when one
    is given; returns the violations found."""
    problems = []
    times = fingerprint["event_times"]
    start = eta0
    if workload.orbit:
        start = splice(eta0, config, 0)
        if not fingerprint["converged"]:
            problems.append("orbit search did not converge")
        if not fingerprint["verified"]:
            problems.append("orbit failed verification")
        if fingerprint["reset_intervals"] != [[0]]:
            problems.append(f"orbit search reset {fingerprint['reset_intervals']}, not only interval 0")
        if abs(fingerprint["period"] - FLAT_START_PERIOD) > 2.0 * config.numerics.dt:
            problems.append(f"period {fingerprint['period']!r} is not {FLAT_START_PERIOD} within 2*dt")
    else:
        if fingerprint["events"] != workload.max_events:
            problems.append(f"{fingerprint['events']} events, expected {workload.max_events}")
        if any(later <= earlier for earlier, later in zip(times, times[1:])):
            problems.append("event times do not increase")
    bounds = rs.rupture_time_bounds(config, start)
    if not times or not bounds.t_lower <= times[0] <= bounds.t_upper:
        problems.append(f"first event not within the rupture-time bounds [{bounds.t_lower}, {bounds.t_upper}]")
    if reference is not None and not same(fingerprint, reference):
        problems.append("fingerprint differs from the stored seed-0 reference")
    return problems
