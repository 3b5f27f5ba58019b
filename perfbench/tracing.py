"""In-memory spans around the public functions each rupturesim layer calls.

The wrappers live here, not in the package: installing a :class:`Tracer`
replaces each traced function in every ``rupturesim`` module that bound it
(``from .solver import advance`` copies the reference into
``rupturesim.rupture``, so patching only the defining module would miss
those calls) and restores the originals on exit.  A span is
``[name, parent index, start, end]``; parents precede their children in the
list because a span is appended when its call starts.
"""
from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# Layers in blocking order: cli -> config -> stationary -> periodic -> rupture -> solver.
TRACED = {
    "rupturesim.cli": ("resolve_config", "write_profile_csv"),
    "rupturesim.config": ("validate",),
    "rupturesim.stationary": ("solve_stationary", "check_condition_S"),
    "rupturesim.periodic": ("find_periodic", "poincare_map", "verify_periodic"),
    "rupturesim.rupture": ("run_with_rupture", "locate_crossing", "rupture_intervals", "apply_reset"),
    "rupturesim.solver": ("advance", "step_decoupled", "step_coupled", "solve_periodic_tridiagonal"),
}

# Entry points whose outermost spans make up "library time".
LIBRARY_ENTRIES = ("find_periodic", "verify_periodic", "run_with_rupture")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()

        return traced

    @contextmanager
    def installed(self):
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "rupturesim"]
        patched = []
        try:
            for home, names in TRACED.items():
                for name in names:
                    original = getattr(sys.modules[home], name)
                    wrapper = self._wrap(name, original)
                    for module in modules:
                        if module.__dict__.get(name) is original:
                            setattr(module, name, wrapper)
                            patched.append((module, name, original))
            yield self
        finally:
            for module, name, original in reversed(patched):
                setattr(module, name, original)


def layer_metrics(spans: list[list], n: int) -> dict[str, float]:
    """Per-layer counts and self times of one traced workload unit.

    ``n`` is the grid size, used for the per-node solve cost and the
    computed bytes: each solve must at least read its right-hand side and
    write its solution, ``16 * n`` bytes of float64.
    """
    count = len(spans)
    child = [0.0] * count
    in_search = [False] * count
    for i, (name, parent, start, end) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            in_search[i] = in_search[parent]
        in_search[i] = in_search[i] or name == "find_periodic"

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, (name, _, start, end) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]

    def total(*names):
        return sum(self_s.get(name, 0.0) for name in names)

    def advances_under(parent_name):
        return sum(
            1 for name, parent, _, _ in spans
            if name == "advance" and parent >= 0 and spans[parent][0] == parent_name
        )

    library_s = sum(
        end - start for name, parent, start, end in spans
        if parent < 0 and name in LIBRARY_ENTRIES
    )
    solves = calls.get("solve_periodic_tridiagonal", 0)
    solve_s = total("solve_periodic_tridiagonal")
    events = calls.get("locate_crossing", 0)
    loop_steps = advances_under("run_with_rupture")
    bisection_steps = advances_under("locate_crossing")
    accepted = loop_steps - events  # each event's trial step overshot the threshold
    steps = loop_steps + bisection_steps
    verify_s = sum(end - start for name, _, start, end in spans if name == "verify_periodic")
    return {
        "solver.solve.calls": solves,
        "solver.solve.self_s": solve_s,
        "solver.solve.ns_per_node": solve_s / (solves * n) * 1e9 if solves else 0.0,
        "solver.solve.share": solve_s / library_s if library_s else 0.0,
        "solver.solve.computed_bytes": 16 * n * solves,
        "solver.step.calls": calls.get("step_decoupled", 0) + calls.get("step_coupled", 0),
        "solver.step.self_s": total("advance", "step_decoupled", "step_coupled"),
        "rupture.accepted_steps": accepted,
        "rupture.bisection_steps": bisection_steps,
        "rupture.accepted_step_ratio": accepted / steps if steps else 0.0,
        "rupture.steps_per_event": steps / events if events else 0.0,
        "rupture.locate.self_s": total("locate_crossing"),
        "rupture.reset.self_s": total("rupture_intervals", "apply_reset"),
        "rupture.loop.self_s": total("run_with_rupture"),
        "periodic.maps": calls.get("poincare_map", 0),
        "periodic.search.solves": sum(
            1 for i, span in enumerate(spans)
            if span[0] == "solve_periodic_tridiagonal" and in_search[i]
        ),
        "periodic.map.self_s": total("poincare_map"),
        "periodic.verify_s": verify_s,
        "stationary.calls": calls.get("solve_stationary", 0) + calls.get("check_condition_S", 0),
        "stationary.self_s": total("solve_stationary", "check_condition_S"),
        "config.resolve_s": total("resolve_config", "validate"),
        "cli.write_s": total("write_profile_csv"),
        "library_s": library_s,
    }
