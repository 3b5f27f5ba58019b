"""Junction-interval geometry against the span definitions written out.

Interval ``k`` is the half-open span ``[a_k, a_{k+1})``; the last one wraps
through ``omega`` to ``a_0``.  Resets and the rupture set use the half-open
spans, the return map splices the open span ``(a_k, a_{k+1})``.  The
references below spell each span out with comparisons, so a change in how
the package indexes intervals cannot move a node from one span to another
unnoticed, also where junctions sit exactly on nodes.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from rupturesim import rupture
from rupturesim.config import ModelConfig
from rupturesim.periodic import splice
from rupturesim.rupture import rupture_intervals
from rupturesim.solver import Field, build_grid


def half_open_span(nodes, junctions, i):
    if i == len(junctions) - 1:
        return (nodes >= junctions[-1]) | (nodes < junctions[0])
    return (nodes >= junctions[i]) & (nodes < junctions[i + 1])


def open_span(nodes, junctions, i):
    if i == len(junctions) - 1:
        return (nodes > junctions[-1]) | (nodes < junctions[0])
    return (nodes > junctions[i]) & (nodes < junctions[i + 1])


def geometry_config(omega, junctions):
    return ModelConfig(
        omega=omega,
        junctions=tuple(junctions),
        jump_strengths=(0.0,) * len(junctions),
        forcing_offset=0.0,
        sigma1=1.0,
        sigma2=1.0,
        tau=1.0,
        alpha=1.0,
        eta_c=0.01,
        eta_a=0.03,
        d=0.1,
    )


@st.composite
def geometries(draw):
    """A grid and junctions; half the draws put every junction on a node,
    and one junction alone is drawn often."""
    omega = draw(st.sampled_from([1.0, 2.5]))
    n = draw(st.integers(4, 40))
    k = draw(st.one_of(st.just(1), st.integers(1, min(5, n))))
    nodes = np.arange(n) * (omega / n)
    if draw(st.booleans()):
        picks = draw(st.sets(st.integers(0, n - 1), min_size=k, max_size=k))
        junctions = [float(nodes[i]) for i in sorted(picks)]
    else:
        positions = st.floats(0.0, omega, exclude_max=True)
        junctions = sorted(draw(st.lists(positions, min_size=k, max_size=k, unique=True)))
    config = geometry_config(omega, junctions)
    return config, build_grid(config, n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(geometries(), st.data())
def test_interval_geometry_matches_the_span_definitions(geometry, data):
    config, grid = geometry
    nodes, junctions = grid.nodes, config.junctions
    k = len(junctions)
    spans = [half_open_span(nodes, junctions, i) for i in range(k)]
    assert np.array_equal(np.sum(spans, axis=0), np.ones(grid.n))  # a partition

    intervals = tuple(sorted(data.draw(st.sets(st.integers(0, k - 1)), label="intervals")))
    expected = np.zeros(grid.n, dtype=bool)
    for i in intervals:
        expected |= spans[i]
    assert np.array_equal(rupture.reset_mask(grid, config, intervals), expected)

    index = data.draw(st.integers(0, k - 1), label="index")
    xi = Field(grid, -1.0 - np.arange(grid.n), 0.0)
    inside = open_span(nodes, junctions, index)
    expected_values = np.where(inside, config.eta_a, xi.values)
    assert np.array_equal(splice(xi, config, index).values, expected_values)

    low = data.draw(st.sets(st.integers(0, grid.n - 1), min_size=1), label="low nodes")
    values = np.ones(grid.n)
    values[list(low)] = 0.0
    owners = {i for i in range(k) for j in low if spans[i][j]}
    assert rupture_intervals(Field(grid, values, 0.0), config) == tuple(sorted(owners))


def test_wrap_interval_with_junctions_on_nodes(ex1):
    grid = build_grid(ex1, 10)  # 0.1 and 0.9 are nodes, 0.6 is not
    assert grid.nodes[1] == 0.1 and grid.nodes[9] == 0.9
    last = len(ex1.junctions) - 1
    mask = rupture.reset_mask(grid, ex1, (last,))
    assert np.flatnonzero(mask).tolist() == [0, 9]  # [0.9, 1.1): 0.9 in, 0.1 out
    xi = Field(grid, np.zeros(grid.n), 0.0)
    spliced = splice(xi, ex1, last)
    assert np.flatnonzero(spliced.values).tolist() == [0]  # (0.9, 1.1): node 0 only
    values = np.ones(grid.n)
    values[9] = 0.0
    assert rupture_intervals(Field(grid, values, 0.0), ex1) == (last,)
    values[9], values[1] = 1.0, 0.0
    assert rupture_intervals(Field(grid, values, 0.0), ex1) == (0,)
