"""Model set-up, timed from a fresh interpreter for the ``setup_s`` metric.

Run as ``python perfbench/setup_probe.py <rupturesim CLI arguments>``: it
imports the package, resolves and validates the scenario the way the CLI
does, builds the grid, the operators, the stationary profile and the initial
field, and prints ``time.monotonic()``.  The parent subtracts the moment it
started this interpreter; both read the same system-wide monotonic clock.

The calls go through module attributes so that a tracer installed by the
parent sees them when :func:`set_up` runs in-process.
"""
import sys
import time

import rupturesim.cli as cli
from rupturesim import config as config_module
from rupturesim import solver, stationary


def set_up(argv):
    """Everything the CLI does before its first step; returns the resolved
    config and the initial thickness field."""
    args = cli.build_parser().parse_args(argv)
    config = cli.resolve_config(cli.manifest_from_args(args))
    config_module.validate(config)
    grid = solver.build_grid(config)
    solver.assemble_operators(grid, config)
    stationary.solve_stationary(config)
    return config, cli.make_initial_field(args.eta0, grid, config)


if __name__ == "__main__":
    set_up(sys.argv[1:])
    print(time.monotonic())
