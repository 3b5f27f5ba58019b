"""Spatial discretization and backward-Euler stepping on the periodic domain.

Uniform nodes, piecewise-linear hat functions for the point loads, lumped
mass.  Each implicit step solves a periodic tridiagonal system whose matrix
has a positive diagonal, nonpositive off-diagonals, and strict diagonal
dominance, so the step is order preserving; that monotonicity is what the
rupture and return-map layers rely on.  On the uniform periodic grid every
step matrix is circulant, so it is inverted by dividing each rfft mode by
its eigenvalue; the eigenvalues of the second difference come from one
cached table per grid size, and the reciprocal eigenvalues of the few most
recent step matrices are cached too.  Every solve is checked for a backward
error of about 1e-12 (``_ROUNDOFF``, the one roundoff model here).  The
operator bundle :class:`Operators`, one per grid and configuration, owns
every table built from them and a step size: the step matrices, the coupled
chunk tables, and the decoupled symbol, factors and fixed point.
Both state kinds form their rfft ``modes``, minimum thickness ``low`` and
mode sum ``size`` on first read and keep them; a producer assigns its own.
``jump_decoupled`` applies many equal decoupled steps at once in closed
form, for every ``alpha >= 0``: they move each rfft mode in proportion to
the drive, the modes of ``load - (alpha I + sigma K) x``.  The state it
makes keeps the modes it moved, so a chain of jumps pays one forward
transform and one inverse transform per jump, and it evaluates the per-mode
factors only over the prefix of modes where they exceed about ``2**-64``,
which gives the uncut values bit for bit.
``jump_coupled`` runs a whole coupled gap in rfft mode space, where each
step is lower-triangular per mode: per 16-step chunk one product with the
bundle's per-mode tables gives the thickness after each step and one
batched inverse transform their minima, and the chunk base moves on as the
last thickness plus the height from the tables.  Only the state before the
last step taken returns to real space, formed in the same way from the
tested thickness, and ``advance`` checks that step.  One per-mode step,
``_step_modes``, serves both state kinds, the checked steps, the probe's
trials and the coupled tables, so all of them agree bit for bit.
``advance`` alone forms a checked step, from the state's modes or as the
nodal rows a caller has already formed (``solution``); the step and solve
functions under it only check them against the real-space right sides.
``StepProbe`` owns the crossing bisection's decisions about one step of any
size from a state of either kind: its minimum thickness, bit for bit that
of ``advance``, or a bound on it from how far the step moves each mode, and
the checked step that hands a state out.  Both state kinds expose their
layer thickness as ``eta``.

``fourier_reference`` provides an independent mild-solution oracle for the
decoupled equation, evolving Fourier modes of the deviation from the
stationary profile exactly.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import ModelConfig, effective_parameters
from .errors import DomainError, LinearSolveError, UnsupportedError
from . import stationary

# The roundoff allowance, about 4,500 eps, of every check, closed form and
# trial here, on the sum of the magnitudes it adds (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., ch. 4), times a factor of its
# own.  A step forms each rfft mode from that mode of its start and the load,
# and the inverse transform adds the modes with weights w_k: the sum is the
# mode_sum of the states plus Operators.shares.  Factors: 1 for jump_coupled's
# handed-out minimum; 1 + 4*sigma*dt/dx^2 for StepProbe's slack (the change's
# high modes, mu*x); rupture._JUMP_FACTOR for a jump's margin above eta_c,
# which also covers plain stepping's drift of about N*eps in N steps of a
# decaying state: a drift past it could move a crossing only where a step's
# minimum lies within it of eta_c, where no margin makes the two agree.
# The solve check keeps |diag|*max|x|; the mode sum loosens it up to sqrt(n).
_ROUNDOFF = 1.0e-12


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: node j sits at ``j*omega/n``.  The nodes
    follow from the other fields, so equality and the hash leave them out."""

    n: int
    omega: float
    dx: float
    nodes: np.ndarray = field(compare=False)


def build_grid(config: ModelConfig, n: int | None = None) -> Grid:
    """Grid with ``n`` nodes (default from the config numerics)."""
    if n is None:
        n = config.numerics.grid_points
    if n < 4:
        raise DomainError("grid needs at least 4 nodes")
    dx = config.omega / n
    dx2 = dx * dx
    if not (dx2 > 0.0 and math.isfinite(dx2) and math.isfinite(1.0 / dx2)):
        # the stiffness divides by dx**2, which would overflow or vanish
        raise DomainError(f"grid spacing {dx:g} is too large or too small to square")
    return Grid(n=n, omega=config.omega, dx=dx, nodes=np.arange(n) * dx)


class _formed:
    """A quantity of a state, formed by the decorated method on first read
    and kept in the instance ``__dict__``, where a producer that holds it
    assigns it instead: a non-data descriptor, so later reads take no call
    and no lock."""

    def __init__(self, form) -> None:
        self._form, self._name, self.__doc__ = form, form.__name__, form.__doc__

    def __get__(self, state, owner=None):
        if state is None:
            return self
        value = state.__dict__[self._name] = self._form(state)
        return value


class _State:
    """``low`` and ``size``, which both state kinds form on first read."""

    @_formed
    def low(self) -> float:
        """The minimum layer thickness."""
        return float(self.eta.values.min())

    @_formed
    def size(self) -> float:
        """:func:`mode_sum` of ``modes`` (up to roundoff where assigned)."""
        return mode_sum(self.grid.n, self.modes)


@dataclass
class Field(_State):
    """Nodal values of one periodic scalar field at one time instant.  Once
    its ``modes``, ``low`` or ``size`` has been read, the values must not
    change in place: make a new field; ``copy()`` forms them afresh."""

    grid: Grid
    values: np.ndarray
    time: float = 0.0

    @property
    def eta(self) -> "Field":
        """The layer thickness: the field itself."""
        return self

    @_formed
    def modes(self) -> np.ndarray:
        """rfft modes of the values; read-only."""
        modes = np.fft.rfft(self.values)
        modes.flags.writeable = False
        return modes

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy(), self.time)


def constant_field(grid: Grid, value: float, time: float = 0.0) -> Field:
    return Field(grid, np.full(grid.n, float(value)), time)


@dataclass
class CoupledState(_State):
    """Bubble-top height ``h`` and liquid-surface height ``zeta``; the layer
    thickness is their difference.  Once its ``modes``, ``low`` or ``size``
    has been read, neither field's values may change in place: make a new
    state; ``copy()`` forms them afresh."""

    h: Field
    zeta: Field

    @property
    def time(self) -> float:
        return self.zeta.time

    @time.setter
    def time(self, value: float) -> None:
        self.h.time = value
        self.zeta.time = value

    @property
    def grid(self) -> Grid:
        return self.zeta.grid

    @property
    def eta(self) -> Field:
        return Field(self.zeta.grid, self.zeta.values - self.h.values, self.zeta.time)

    @_formed
    def modes(self) -> np.ndarray:
        """rfft modes of ``h`` and ``zeta`` as two rows; read-only."""
        modes = np.fft.rfft((self.h.values, self.zeta.values))
        modes.flags.writeable = False
        return modes

    def copy(self) -> "CoupledState":
        return CoupledState(self.h.copy(), self.zeta.copy())

    @classmethod
    def from_thickness(cls, eta: Field) -> "CoupledState":
        """Start state of thickness ``eta`` over a flat zero height, at
        time 0."""
        h0 = constant_field(eta.grid, 0.0)
        return cls(h0, Field(eta.grid, h0.values + eta.values, 0.0))


@dataclass(frozen=True, eq=False)
class Operators:
    """Grid operators and load vectors shared by all runs on one grid and
    configuration; :func:`assemble_operators` builds each bundle once.

    ``load`` is the nodal forcing of the reduced thickness equation
    (delta parts split by hat-function weights, divided by the lumped
    mass, minus the effective constant offset); ``height_load`` is the same
    construction from the unscaled strengths and offset, divided by
    ``tau``, the forcing of the height equation.  The stiffness action is
    the periodic second difference with row pattern ``(-1, 2, -1)/dx**2``.
    The bundle owns the height and thickness step matrices, the decoupled
    symbol, reach weights and fixed point, the rfft modes of both loads,
    and per step size the decoupled factors and the coupled chunk tables,
    cached on the bundle's identity; all but the matrices fill lazily and
    deterministically.
    Every array it holds is read-only, so one bundle can serve many runs.
    """

    grid: Grid
    sigma: float
    alpha: float
    load: np.ndarray
    height_load: np.ndarray
    sigma_h: float

    def height_matrix(self, dt: float) -> tuple[float, float]:
        """``(shift, stiffness)`` of the cyclic matrix of one backward-Euler
        step of the height, ``I/dt + sigma_h K``."""
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        return 1.0 / dt, self.sigma_h / self.grid.dx**2

    def thickness_matrix(self, dt: float) -> tuple[float, float]:
        """``(shift, stiffness)`` of the cyclic matrix of one backward-Euler
        step of the thickness, ``I/dt + sigma K + alpha I``."""
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        return 1.0 / dt + self.alpha, self.sigma / self.grid.dx**2

    @functools.cached_property
    def diffusion(self) -> tuple[np.ndarray, np.ndarray]:
        """``(sigma*lambda_k, sigma_h*lambda_k)`` per rfft mode, with
        ``lambda_k = s_k/dx^2`` and ``s_k`` from
        :func:`_second_difference_symbol`; read-only."""
        dx = self.grid.dx
        curvature = _second_difference_symbol(self.grid.n) / (dx * dx)
        tables = self.sigma * curvature, self.sigma_h * curvature
        for table in tables:
            table.flags.writeable = False
        return tables

    @functools.cached_property
    def symbol(self) -> np.ndarray:
        """Eigenvalue ``alpha + sigma*lambda_k`` of ``alpha I + sigma K`` per
        rfft mode; read-only."""
        symbol = self.alpha + self.diffusion[0]
        symbol.flags.writeable = False
        return symbol

    @functools.cached_property
    def still_count(self) -> int:
        """How many leading rfft modes have symbol 0, so that a decoupled
        step moves them by ``dt`` times the drive: mode 0 without
        evaporation, and those whose diffusion underflows, which lead
        because ``lambda_k`` grows with ``k``."""
        moving = np.flatnonzero(self.symbol > 0.0)
        return int(moving[0]) if moving.size else len(self.symbol)

    @functools.lru_cache(maxsize=4)
    def decoupled_factors(self, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(g, log1p(g), dt*w/(1 + g))`` per rfft mode, with ``g =
        dt*symbol`` and ``w`` from :func:`_mode_weights`: the growth of a
        decoupled step of ``dt``, ``-log F_k`` of its factor ``F_k = 1/(1 +
        g_k)``, and the weights of its change rate, which scale the drive;
        read-only and built once per step size."""
        growth = dt * self.symbol
        tables = growth, np.log1p(growth), dt * _mode_weights(self.grid.n) / (1.0 + growth)
        for table in tables:
            table.flags.writeable = False
        return tables

    def kept_modes(self, dt: float, steps: int) -> int:
        """How many leading rfft modes keep a factor ``F_k^steps`` above
        about ``2**-64`` over ``steps`` decoupled steps of ``dt``, ``F_k =
        1/(1 + g_k)``: those whose growth ``g_k`` lies below ``expm1(64 ln
        2/steps)``.  Past them every power is smaller, since ``g_k`` grows
        with ``k`` up to roundoff."""
        # cut growth, not 1 + growth: where 1 + growth rounds to 1, so does a
        # bound on it for steps near sys.maxsize, and every mode would be cut
        growth = self.decoupled_factors(dt)[0]
        return int(np.searchsorted(growth, math.expm1(64.0 * math.log(2.0) / steps)))

    @functools.cached_property
    def reach_weights(self) -> np.ndarray:
        """``w_k/symbol_k`` per rfft mode, with ``w_k`` from
        :func:`_mode_weights`, and 0 on the leading ``still_count`` modes:
        how far any number of decoupled steps can move any node per unit of
        a mode's drive; read-only."""
        weights = np.zeros_like(self.symbol)
        still = self.still_count
        weights[still:] = _mode_weights(self.grid.n)[still:] / self.symbol[still:]
        weights.flags.writeable = False
        return weights

    @functools.lru_cache(maxsize=4)
    def coupled_tables(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-mode coefficients of ``_CHUNK`` coupled steps of ``dt``, in the
        interleaved float layout of :func:`_inverse_symbol`; read-only and
        built once per step size.

        ``rows[0..2, j]`` give the thickness after ``j + 1`` steps as
        ``rows[0, j]*zeta + rows[1, j]*h + rows[2, j]`` in terms of the start
        modes, and ``heights[0..1, j]`` the height after them as
        ``heights[0, j]*h + heights[1, j]``; the surface is their sum.  They
        come from the step :func:`_step_modes` itself, run on unit inputs in
        float64, and not from a closed form in powers of the two step
        factors, which divides by their difference where they meet; the
        load's columns ``rows[2]`` and ``heights[1]`` are then multiplied by
        the height load's modes.
        """
        # unit inputs: row 0 starts from zeta = 1, row 1 from h = 1, and
        # row 2 from zero with a unit load
        pair = np.zeros((2, 3, 2 * (self.grid.n // 2 + 1)))
        pair[0, 1] = pair[1, 0] = 1.0
        unit = np.array([[0.0], [0.0], [1.0]])
        rows = np.empty((3, _CHUNK, pair.shape[2]))
        heights = np.empty((2, _CHUNK, pair.shape[2]))
        for j in range(_CHUNK):
            pair = _step_modes(pair, dt, self, unit)
            rows[:, j] = pair[1] - pair[0]
            heights[:, j] = pair[0, 1:]  # the height does not depend on zeta
        load = self.height_load_modes.view(np.float64)
        rows[2] *= load
        heights[1] *= load
        rows.flags.writeable = heights.flags.writeable = False
        return rows, heights

    @functools.cached_property
    def load_min(self) -> float:
        """``min(load)``, the constant load of the subsolution."""
        return float(np.min(self.load))

    @functools.cached_property
    def fixed_tails(self) -> np.ndarray:
        """``sum_{j >= k} w_j |l_j|/mu_j`` per rfft mode ``k`` (0 past the last)
        over the load's modes ``l_j`` of positive symbol ``mu_j``: their share
        of the :func:`mode_sum` of a state whose modes from ``k`` on sit at
        the fixed point ``l_j/mu_j``, ``inf`` where it overflows; read-only."""
        still, terms = self.still_count, np.zeros(len(self.symbol) + 1)
        magnitude = np.abs(self.load_modes) * _mode_weights(self.grid.n)
        with np.errstate(over="ignore"):
            terms[still:-1] = magnitude[still:] / self.symbol[still:]
        tails = np.cumsum(terms[::-1])[::-1]
        tails.flags.writeable = False
        return tails

    @functools.lru_cache(maxsize=4)
    def shares(self, coupled: bool) -> tuple[float, float]:
        """The load's moves on the scale of ``_ROUNDOFF``, for the decoupled
        thickness or (``coupled``) the height: ``sum_k w_k |l_k|/mu_k`` over
        the modes of positive symbol ``mu_k``, the most any number of steps
        moves them by the load ``l`` (the fixed point's mode sum, ``inf``
        where it overflows, which certifies no jump and decides no step),
        and ``sum_k w_k |l_k|`` over the rest, moved by ``dt`` times it a step."""
        load, symbol = self.load_modes, self.symbol
        if coupled:
            load, symbol = self.height_load_modes, self.diffusion[1]
        magnitude = np.abs(load) * _mode_weights(self.grid.n)
        moving = symbol > 0.0
        with np.errstate(over="ignore"):
            fixed = np.sum(magnitude[moving] / symbol[moving]) if coupled else self.fixed_tails[0]
        return float(fixed), float(np.sum(magnitude[~moving]))

    @functools.cached_property
    def load_modes(self) -> np.ndarray:
        """rfft modes of ``load``; read-only."""
        modes = np.fft.rfft(self.load)
        modes.flags.writeable = False
        return modes

    @functools.cached_property
    def height_load_modes(self) -> np.ndarray:
        """rfft modes of ``height_load``; read-only."""
        modes = np.fft.rfft(self.height_load)
        modes.flags.writeable = False
        return modes

    @functools.cached_property
    def fixed_point(self) -> np.ndarray:
        """The fixed point ``x*`` of every decoupled step, ``(alpha I + sigma
        K) x* = load``, at the nodes, from its rfft modes ``load_modes/symbol``,
        so ``mean(x*) = mean(load)/alpha``; read-only.  Requires ``alpha >
        0``, which makes it unique."""
        if not self.alpha > 0.0:
            raise UnsupportedError("the decoupled fixed point requires alpha > 0")
        fixed = np.fft.irfft(self.load_modes / self.symbol, self.grid.n)
        fixed.flags.writeable = False
        return fixed


def _load_vector(
    grid: Grid, junctions: tuple[float, ...], strengths: tuple[float, ...], offset: float
) -> np.ndarray:
    weights = np.zeros(grid.n)
    for a, c in zip(junctions, strengths):
        pos = (a % grid.omega) / grid.dx
        j = int(math.floor(pos)) % grid.n
        frac = pos - math.floor(pos)
        weights[j] += c * (1.0 - frac)
        weights[(j + 1) % grid.n] += c * frac
    return weights / grid.dx - offset


@functools.lru_cache(maxsize=8)
def assemble_operators(grid: Grid, config: ModelConfig) -> Operators:
    """The operator bundle of one grid and configuration, built once and
    shared by every run on them, such as the return maps of an orbit search.
    A load that is not finite raises :class:`DomainError`, and so does, in
    coupled mode, a mean height load whose product with the larger step
    stiffness overflows: the checks of the coupled solves would overflow
    within about a unit of time.  So does a coupled mean height load, mode
    0 of its rfft over ``n``, that lies within the roundoff of its sum
    (``n*eps`` times the mean of ``|height_load|``) yet moves the mean
    thickness by more than the event tolerance per step: the forcing is
    balanced up to roundoff, and that roundoff would decide the run."""
    sigma_eff, strengths_eff, offset_eff = effective_parameters(config)
    with np.errstate(over="ignore", invalid="ignore"):
        load = _load_vector(grid, config.junctions, strengths_eff, offset_eff)
        height_load = _load_vector(
            grid, config.junctions, config.jump_strengths, config.forcing_offset
        ) / config.tau
        # the mean height has no restoring term: a coupled run moves it by
        # minus the mean height load per unit of time, and the check of each
        # coupled solve multiplies it by the stiffness of a step matrix
        drift = -np.mean(height_load)
        stiffness = max(config.sigma1 / config.tau, sigma_eff) / grid.dx**2
        growth = stiffness * abs(drift)
        roundoff = grid.n * np.finfo(float).eps * np.mean(np.abs(height_load))
    if not (np.isfinite(load).all() and np.isfinite(height_load).all()):
        raise DomainError(f"the nodal load is not finite on the grid of spacing {grid.dx:g}")
    if config.mode == "coupled" and not np.isfinite(growth):
        raise DomainError(
            f"the mean height moves by {drift:g} per unit time, too fast for the "
            f"coupled solves' checks at the step stiffness {stiffness:g}"
        )
    load.flags.writeable = height_load.flags.writeable = False
    ops = Operators(
        grid=grid,
        sigma=sigma_eff,
        alpha=config.alpha,
        load=load,
        height_load=height_load,
        sigma_h=config.sigma1 / config.tau,
    )
    if config.mode == "coupled":
        # each coupled step moves the mean thickness by dt*mean/(1 + alpha*dt)
        mean = float(ops.height_load_modes[0].real) / grid.n
        moved = config.numerics.dt * abs(mean)
        value_tol = config.numerics.event_tol * config.eta_a
        if abs(mean) <= roundoff and moved > value_tol:
            raise DomainError(
                f"the mean height load {mean:g} is within the roundoff of its sum, yet "
                f"moves the thickness by {moved:g} per step, more than the event "
                f"tolerance {value_tol:g}: the forcing's balance is lost at tau = {config.tau:g}"
            )
    return ops


@functools.lru_cache(maxsize=8)
def _second_difference_symbol(n: int) -> np.ndarray:
    """``s_k = 4 sin^2(pi k/n)`` for the rfft modes ``k = 0..n//2``: the
    eigenvalues of the periodic second difference with row pattern
    ``(-1, 2, -1)`` on ``n`` nodes, read-only."""
    table = 4.0 * np.sin(np.pi * np.arange(n // 2 + 1) / n) ** 2
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=8)
def _mode_weights(n: int) -> np.ndarray:
    """Bound ``w_k`` on the size at any node of the inverse rfft term of a
    unit mode ``k``: ``1/n`` for mode 0 and (``n`` even) the Nyquist mode,
    ``2/n`` otherwise; read-only.  The term of mode ``k`` at node ``j`` is
    ``w_k Re(m_k e^{2 pi i jk/n})`` exactly."""
    weights = np.full(n // 2 + 1, 2.0 / n)
    weights[0] = 1.0 / n
    if n % 2 == 0:
        weights[-1] = 1.0 / n
    weights.flags.writeable = False
    return weights


def mode_sum(n: int, modes: np.ndarray) -> float:
    """``sum_k w_k |m_k|`` (:func:`_mode_weights`) over the rows of rfft
    ``modes`` of ``n`` nodes: the most their inverse reaches at a node."""
    total = np.abs(modes) @ _mode_weights(n)  # a scalar for one row
    return float(total if total.ndim == 0 else total.sum())


@functools.lru_cache(maxsize=4)
def _inverse_symbol(n: int, shift: float, stiffness: float) -> np.ndarray:
    """``1/(shift + stiffness*s_k)`` per rfft mode of the cyclic matrix, each
    value twice so that it scales the real and the imaginary part of its
    mode in the interleaved float view; read-only.  Kept per matrix because
    a run of equal steps reuses it, and a real product costs far less than
    evaluating the eigenvalues and a complex division on every solve."""
    inverse = np.repeat(1.0 / (shift + stiffness * _second_difference_symbol(n)), 2)
    inverse.flags.writeable = False
    return inverse


def solve_periodic_tridiagonal(
    shift: float, stiffness: float, rhs: np.ndarray, solution: np.ndarray
) -> np.ndarray:
    """Check ``solution`` of the cyclic tridiagonal system ``shift*I +
    stiffness*(-1, 2, -1)`` with right side ``rhs`` and return it: a
    residual above ``1e-12 * |diag| * max|x|``, ``diag = shift +
    2*stiffness`` (a backward error of about ``1e-12``, independent of the
    grid size), raises :class:`LinearSolveError`; it cannot occur for the
    diagonally dominant step matrices in exact arithmetic.  ``x`` and
    ``rhs`` are scaled by a power of two near ``1/max|x|``, exactly, so a
    huge state meeting a stiff step cannot overflow the residual."""
    diag = shift + 2.0 * stiffness
    top, exponent = math.frexp(max(solution.max(), -solution.min()))
    x = np.ldexp(solution, -exponent)
    residual = diag * x - np.ldexp(rhs, -exponent)
    residual[1:] -= stiffness * x[:-1]
    residual[:-1] -= stiffness * x[1:]
    residual[0] -= stiffness * x[-1]
    residual[-1] -= stiffness * x[0]
    limit = _ROUNDOFF * abs(diag) * top
    worst = np.abs(residual).max()
    if not math.isfinite(worst) or worst > limit:
        raise LinearSolveError(
            f"cyclic solve residual {worst:g} exceeds {limit:g}, both scaled by 2**{-exponent}"
        )
    return solution


def step_decoupled(state: Field, dt: float, ops: Operators, solution: np.ndarray) -> Field:
    """Check the backward-Euler step of the reduced thickness equation to
    ``solution``, one row of new nodal values formed by :func:`advance`,
    against its real-space right side."""
    rhs = state.values / dt + ops.load
    x = solve_periodic_tridiagonal(*ops.thickness_matrix(dt), rhs, solution[0])
    return Field(state.grid, x, state.time + dt)


def jump_decoupled(
    state: Field,
    steps: int,
    dt: float,
    ops: Operators,
    drive: np.ndarray | None = None,
) -> Field:
    """``steps`` backward-Euler steps of the reduced thickness equation at
    once, for any ``alpha >= 0``.

    Exact in exact arithmetic.  The drive ``v``, the rfft modes of ``load -
    (alpha I + sigma K) x``, sets how far a step moves each mode: one step
    moves mode ``k`` of ``x`` by ``dt*v_k/(1 + g_k)``, ``g_k =
    dt*symbol_k``, and multiplies ``v_k`` by ``F_k = 1/(1 + g_k)``, so
    ``m`` steps move it by ``v_k (1 - F_k^m)/symbol_k``, and by ``m*dt*v_k``
    where ``symbol_k = 0`` (mode 0 without evaporation).  ``drive`` is
    formed from ``state.modes`` unless given.  The jumped state keeps the
    modes it moved, which stand for its transform up to roundoff, so the
    one inverse transform is the only one.  ``1 - F_k^m`` is formed as
    ``-expm1(-m*log1p(g_k))``, which does not cancel where ``g_k`` is tiny
    (mode 0 under weak evaporation), and only over the prefix of modes
    whose growth ``g_k`` lies below a cut at which ``F_k^m`` is about
    ``2**-64``.  Past it every power is smaller, and ``1 - F_k^m`` rounds
    to 1 for any ``F_k^m`` up to ``2**-54``, so the cut modes take
    ``1/symbol_k`` bit for bit as the uncut closed form does, and skip the
    work of the powers.  That holds even where a rounded ``g_k`` does not
    grow with ``k``: a mode on the wrong side of the cut lies within
    roundoff of it, where its power is still about ``2**-64``.  The cut
    modes sit at the fixed point ``l_k/symbol_k`` up to roundoff, so the
    jumped state's ``size`` is the sum over the others plus
    :attr:`Operators.fixed_tails` at the cut.  The time advances by
    ``steps`` repeated additions of ``dt``, so it is bit-identical to
    stepping.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    grid, symbol, modes = state.grid, ops.symbol, state.modes
    if drive is None:
        drive = ops.load_modes - symbol * modes
    logs, still = ops.decoupled_factors(dt)[1], ops.still_count
    cut = max(ops.kept_modes(dt, steps), still)
    reach = np.ones_like(symbol)
    reach[:cut] = -np.expm1(-steps * logs[:cut])
    reach[:still] = steps * dt
    reach[still:] /= symbol[still:]
    moved = reach * drive
    moved += modes
    moved.flags.writeable = False
    jumped = Field(grid, np.fft.irfft(moved, grid.n), _time_after(state.time, steps, dt))
    jumped.modes = moved
    jumped.size = float(np.abs(moved[:cut]) @ _mode_weights(grid.n)[:cut] + ops.fixed_tails[cut])
    return jumped


def _time_after(time: float, steps: int, dt: float) -> float:
    """``time`` after ``steps`` repeated additions of ``dt``, as stepping
    counts it, in a few operations per binade of the time.

    While every sum stays inside one binade ``[top/2, top)`` of the time,
    each addition rounds to the same whole number of ulps; only when ``dt``
    leaves exactly half an ulp can round-to-even make the first addition
    differ, so the increment is read off the second.  Small times, the last
    ``2*dt`` below each binade's top and the last few steps use plain
    additions.
    """
    while steps > 0:
        if steps >= 4 and 4.0 * dt <= time < math.inf:
            top = math.ldexp(1.0, math.frexp(time)[1])
            first = time + dt
            increment = (first + dt) - first
            if increment == 0.0:
                return first
            # the additions after the first whose sums stay below top - 2*dt,
            # one fewer for the rounding of this quotient
            count = min(steps - 1, math.floor((top - 2.0 * dt - first) / increment) - 1)
            if count >= 1:
                time, steps = first + count * increment, steps - count - 1
                continue
        time += dt
        steps -= 1
    return time


def step_coupled(
    h: Field, zeta: Field, dt: float, ops: Operators, solution: np.ndarray
) -> tuple[Field, Field]:
    """Check the backward-Euler step of the height/surface pair to
    ``solution``, the new nodal rows of ``h`` and ``zeta`` formed by
    :func:`advance`, against the real-space right sides.

    The height equation is autonomous and is advanced first; the surface
    equation then uses the fresh height in its relaxation term, so the
    splitting introduces no error into the height and only a first-order
    term into the surface.
    """
    h_values, z_values = solution
    rhs = h.values / dt - ops.height_load
    h_new = solve_periodic_tridiagonal(*ops.height_matrix(dt), rhs, h_values)
    rhs = zeta.values / dt + ops.alpha * h_new
    z_new = solve_periodic_tridiagonal(*ops.thickness_matrix(dt), rhs, z_values)
    t = h.time + dt
    return Field(h.grid, h_new, t), Field(zeta.grid, z_new, t)


def _step_modes(
    rows: np.ndarray, tau: float, ops: Operators, load: np.ndarray | None = None
) -> np.ndarray:
    """One backward-Euler step of ``tau`` per rfft mode, in the interleaved
    float layout of :func:`_inverse_symbol`, as a fresh array: of one
    thickness row ``x``, ``x' = b (x/tau + l)``, or of the height/surface
    pair ``(h, zeta)``, ``h' = a (h/tau - l)``, then ``zeta' = b (zeta/tau +
    alpha h')``, with ``a`` and ``b`` the reciprocal eigenvalues of the
    height and the thickness step matrices and ``l`` the bundle's load of
    the state's kind, or ``load``, which broadcasts against the rows."""
    out = np.divide(rows, tau)
    if len(out) == 1:
        out += ops.load_modes.view(np.float64) if load is None else load
    else:
        h, z = out
        h -= ops.height_load_modes.view(np.float64) if load is None else load
        h *= _inverse_symbol(ops.grid.n, *ops.height_matrix(tau))
        z += ops.alpha * h
    out[-1] *= _inverse_symbol(ops.grid.n, *ops.thickness_matrix(tau))
    return out


# steps per chunk of jump_coupled: one batched inverse transform of this many
# thickness rows spreads its overhead, and each further row adds five rows to
# the cached tables and three to the buffers of each call
_CHUNK = 16


def jump_coupled(
    state: CoupledState, steps: int, dt: float, ops: Operators, eta_c: float
) -> tuple[int, CoupledState]:
    """Up to ``steps`` backward-Euler steps of the height/surface pair at
    once, stopping before the first whose thickness is at or below ``eta_c``.

    Per rfft mode the coupled step (:func:`_step_modes`) is
    lower-triangular, so the whole gap runs in mode space from one forward
    transform.  Per chunk of ``_CHUNK`` steps one product with the bundle's
    thickness rows (:meth:`Operators.coupled_tables`, built by the same step
    in float64) gives the thickness modes after every step from the chunk
    base's ``(zeta, h)``, and one batched inverse transform gives their
    minima.  The next chunk's base is its last thickness row plus the height
    from the height rows.  The state before the last step taken is formed in
    the same way from the tested row of that step, or is a chunk's base;
    :func:`advance` checks the inverse transform of the last step's new
    modes, which the state it hands out keeps, and that state's minimum
    thickness must match the one tested for that step up to roundoff.
    Returns the number of steps taken (``0``, with ``state`` itself, when
    the first step crosses) and the state.  A non-finite thickness raises
    :class:`LinearSolveError`.  The time advances by
    repeated additions of ``dt``, so it is bit-identical to stepping.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    grid, n = state.grid, state.grid.n
    rows, heights = ops.coupled_tables(dt)
    # two slots, used by alternate chunks so that the one before stays
    # readable: bases[s] holds the (zeta, h, 1) modes at the start of the
    # chunk in slot s, and etas[s] its thickness modes after each step
    bases = np.empty((2, 3, rows.shape[2]))
    bases[0, 1], bases[0, 0] = state.modes.view(np.float64)
    bases[:, 2] = 1.0
    etas = np.empty((2, _CHUNK, n // 2 + 1), dtype=complex)
    values = np.empty((_CHUNK, n))
    # done: steps before this chunk; low: the tested thickness minimum after
    # the last step of the chunk before
    done, slot, low = 0, 0, math.nan
    while True:
        count = min(_CHUNK, steps - done)
        base, eta = bases[slot], etas[slot, :count]
        np.einsum("cjk,ck->jk", rows[:, :count], base, out=eta.view(np.float64))
        lows = np.fft.irfft(eta, n, out=values[:count]).min(axis=1)
        if not np.isfinite(lows).all():
            raise LinearSolveError("coupled step gave a non-finite thickness")
        crossed = np.flatnonzero(lows <= eta_c)
        first = int(crossed[0]) if crossed.size else count  # steps taken of this chunk
        if first:
            low = float(lows[first - 1])
        if first < count or done + count == steps:
            break
        done, slot = done + count, 1 - slot
        moved = bases[slot]
        np.multiply(heights[0, -1], base[1], out=moved[1])
        moved[1] += heights[1, -1]
        np.add(eta[-1].view(np.float64), moved[1], out=moved[0])
    taken = done + first
    if taken == 0:
        return 0, state

    # the state after taken - 1 steps: a chunk's base, or its tested
    # thickness row plus the height from the height rows; when this chunk's
    # first step crosses, it lies in the full chunk before
    if first == 0:
        slot, first = 1 - slot, _CHUNK
    z, h = bases[slot, :2]
    if first > 1:
        h = heights[0, first - 2] * h + heights[1, first - 2]
        z = etas[slot, first - 2].view(np.float64) + h
    pair = np.stack((h, z))
    modes = pair.view(complex)
    h_prev, z_prev = np.fft.irfft(modes, n)
    time = _time_after(state.time, taken - 1, dt)
    before = CoupledState(Field(grid, h_prev, time), Field(grid, z_prev, time))
    after = _step_modes(pair, dt, ops).view(complex)
    state = advance(before, dt, ops, solution=np.fft.irfft(after, n))
    after.flags.writeable = False
    state.modes = after
    if not abs(state.low - low) <= _ROUNDOFF * (mode_sum(n, modes) + state.size):
        raise LinearSolveError(
            f"coupled state of minimum thickness {state.low:g} does not match the tested {low:g}"
        )
    return taken, state


def advance(
    state: Field | CoupledState, dt: float, ops: Operators, *, solution: np.ndarray | None = None
):
    """Single checked step of whichever system the state belongs to.  Its
    new nodal rows (a thickness, or ``h`` and ``zeta``) are ``solution``, a
    step a caller has already taken by :func:`_step_modes` and transformed
    back; else :func:`_step_modes` of ``state.modes``, then one batched
    inverse transform.  Either way the solves are checked against the
    real-space right sides."""
    if solution is None:
        rows = state.modes.reshape(-1, ops.grid.n // 2 + 1).view(np.float64)
        solution = np.fft.irfft(_step_modes(rows, dt, ops).view(complex), ops.grid.n)
    if isinstance(state, CoupledState):
        return CoupledState(*step_coupled(state.h, state.zeta, dt, ops, solution))
    return step_decoupled(state, dt, ops, solution)


# entries per grid node of the probe's candidate-node matrix, above which the
# matrix costs more to build than the full trials it would spare
_NODE_BUDGET = 4


@functools.lru_cache(maxsize=2)
def _unit_roots(n: int) -> np.ndarray:
    """``exp(2 pi i m/n)`` for ``m = 0..n-1``; read-only."""
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    roots.flags.writeable = False
    return roots


class StepProbe:
    """What one backward-Euler step of any size ``tau`` up to ``dt`` from
    ``pre`` does: the crossing bisection's decisions about such steps
    against the threshold ``eta_c`` and ``floor``, the threshold less the
    value tolerance, starting with ``at_dt``, the decision about the step of
    ``dt``; and :meth:`step`, the checked :func:`advance`, the only step
    that hands a state out.

    It reads the state's ``modes``, ``low`` and ``size``.  A decoupled
    caller that has formed the drive (``p`` below) and its magnitude
    ``|p|`` passes them as ``drive``; the load's shares and, for a coupled
    state, ``sigma_h*lambda_k`` and ``sigma*lambda_k`` come from the bundle.
    :meth:`minimum_after` takes the step by :func:`_step_modes` and inverts
    a coupled step's ``h`` and ``zeta`` rows before their difference, as
    :attr:`CoupledState.eta` takes it, so its minimum is bit for bit that
    of :meth:`step`.

    A step of ``tau`` moves rfft mode ``k`` of the thickness by exactly
    ``tau*q_k(tau)``, and :meth:`change` gives ``q_k(tau)`` for the first
    ``count`` modes.  With ``mu`` the decoupled symbol ``sigma*lambda_k +
    alpha`` (``lambda_k = s_k/dx^2``), ``q = (p - u*r)/(1 + tau*mu)``:

    - decoupled, ``u = 0`` and ``p = l - mu*x``, the modes of ``load -
      (alpha I + sigma K) x``, the drive of :func:`jump_decoupled`;
    - coupled, ``p = alpha*h - mu*zeta``, ``u = -(l + nu*h)``, ``r = (1 +
      tau*sigma*lambda_k)/(1 + tau*nu)``, ``nu = sigma_h*lambda_k`` and
      ``l`` the height load.

    ``peak = |p| + |u|`` bounds ``|q_k|`` for every ``tau >= 0``, since no
    divisor is below 1 and ``r/(1 + tau*mu) <= 1/(1 + tau*nu)``, whatever
    the ratio of ``sigma`` to ``sigma_h``.  A value formed from
    :meth:`change` takes the step by other arithmetic than :func:`advance`,
    so it may differ from it by roundoff, which the slack allows for
    (``_ROUNDOFF``; for a coupled state with the larger of ``sigma`` and
    ``sigma_h``).

    :meth:`bound` decides a step without its inverse transform where it
    can.  With ``w_k`` from :func:`_mode_weights` no node falls by more than
    ``tau*drop``, ``drop = sum_k w_k peak_k``, so only nodes with ``eta_0 -
    slack - dt*drop <= eta_c`` can cross.  At those candidate nodes the
    value after the step is ``eta_0 + tau*sum_k w_k Re(q_k e^{2 pi i
    jk/n})``, summed over the shortest prefix of ``K`` modes whose tail
    ``dt*sum_{k >= K} w_k peak_k`` is at most the slack; the tail is added
    to the slack.  Where the candidate set and ``K`` make a matrix of more
    than ``_NODE_BUDGET*n`` entries, only the bound on the drop decides.
    """

    def __init__(
        self,
        pre: Field | CoupledState,
        dt: float,
        ops: Operators,
        eta_c: float,
        floor: float,
        *,
        drive: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        coupled = isinstance(pre, CoupledState)
        values, modes, n = pre.eta.values, pre.modes, ops.grid.n
        self.pre, self.ops = pre, ops
        self._rows = modes.reshape(-1, n // 2 + 1).view(np.float64)

        symbol, dx2 = ops.symbol, ops.grid.dx * ops.grid.dx
        if coupled:
            h, z = modes
            self._diffusion, self._nu = ops.diffusion
            self._p = ops.alpha * h - symbol * z
            self._u = -(ops.height_load_modes + self._nu * h)
            peak = np.abs(self._p) + np.abs(self._u)
            stiffness = max(ops.sigma, ops.sigma_h)
        else:
            if drive is None:
                drive = (p := ops.load_modes - symbol * modes), np.abs(p)
            (self._p, peak), self._u = drive, None
            stiffness = ops.sigma
        fixed, still = ops.shares(coupled)
        slack = _ROUNDOFF * (pre.size + fixed + dt * still) * (1.0 + 4.0 * stiffness * dt / dx2)

        self.eta_c, self.floor = eta_c, floor
        weights = _mode_weights(n)
        rates = weights * peak
        self._drop = drop = float(np.sum(rates))
        self._lowest = pre.low - slack
        self._matrix = None
        if self._lowest - dt * drop <= eta_c:  # else the drop decides every step
            nodes = np.flatnonzero(values - slack - dt * drop <= eta_c)
            # tails[k]: the largest change per unit step of the modes from k on,
            # which does not grow with k
            tails = np.cumsum(rates[::-1])[::-1]
            count = int(np.count_nonzero(dt * tails > slack))
            if 0 < nodes.size * count <= _NODE_BUDGET * n:
                slack += dt * float(tails[count]) if count < tails.size else 0.0
                phases = _unit_roots(n)[np.outer(nodes, np.arange(count)) % n]
                # [w cos, -w sin] per mode, against [Re q, Im q] of the change
                self._matrix = (weights[:count] * phases.conj()).view(np.float64)
                self._candidates, self._count = values[nodes], count
        self._slack = slack
        self._trial = None
        self.at_dt = self.decide(dt)

    def minimum_after(self, tau: float) -> float:
        """The minimum thickness after the step of ``tau``, unchecked.  The
        step's nodal rows are kept for :meth:`step` until the next trial."""
        rows = _step_modes(self._rows, tau, self.ops).view(complex)
        values = np.fft.irfft(rows, self.ops.grid.n)
        self._trial = tau, values
        return float(np.min(values[1] - values[0]) if len(values) == 2 else values[0].min())

    def change(self, tau: float, count: int) -> np.ndarray:
        """``q_k(tau)`` for the first ``count`` modes of the thickness."""
        q = self._p[:count]
        if self._u is not None:
            ratio = (1.0 + tau * self._diffusion[:count]) / (1.0 + tau * self._nu[:count])
            q = q - self._u[:count] * ratio
        return q / (1.0 + tau * self.ops.symbol[:count])

    def bound(self, tau: float) -> float | None:
        """A lower bound on the minimum after the step of ``tau`` above
        ``eta_c``, so the step does not cross, or an upper bound below
        ``floor``, so it crosses by more than the value tolerance; else
        ``None``.  Without candidate nodes, no node can cross."""
        eta_c, slack = self.eta_c, self._slack
        low = self._lowest - tau * self._drop
        if low > eta_c or self._matrix is None:
            return low if low > eta_c else None
        change = self.change(tau, self._count).view(np.float64)
        least = float(np.min(self._candidates + tau * (self._matrix @ change)))
        if least - slack > eta_c:
            return least - slack
        return least + slack if least + slack < self.floor else None

    def decide(self, tau: float) -> tuple[float, bool]:
        """The minimum thickness after a step of ``tau``, or a bound on it
        that lies on the same side of every value the bisection compares it
        with, and whether it is such a bound: :meth:`bound` first, else
        :meth:`minimum_after`."""
        low = self.bound(tau)
        if low is not None:
            return low, True
        return self.minimum_after(tau), False

    def step(self, tau: float) -> Field | CoupledState:
        """The state after the checked step of ``tau`` from ``pre``.  When
        the last full trial (:meth:`minimum_after`) was of this ``tau``, its
        nodal rows are :func:`advance`'s ``solution``, which it only checks;
        the rows become the state's, so the trial is not kept."""
        trial, self._trial = self._trial, None
        solution = trial[1] if trial is not None and trial[0] == tau else None
        return advance(self.pre, tau, self.ops, solution=solution)


def step_toward(remaining: float, dt: float) -> float:
    """Size of the next step toward a target ``remaining`` time away: the
    nominal ``dt``, or all of ``remaining`` when that is at most one step
    (up to roundoff), so that stepping lands exactly on the target."""
    return dt if remaining > dt * (1.0 + 1.0e-12) else remaining


def evolve(state: Field | CoupledState, t_end: float, dt: float, ops: Operators):
    """Step to ``t_end`` with steps of ``dt``, shortening the last step to
    land exactly; performs no rupture checks."""
    time = state.time
    if not math.isfinite(t_end):
        raise ValueError("t_end must be finite")
    if t_end < time:
        raise ValueError("t_end precedes the current state time")
    while time < t_end:
        state = advance(state, step_toward(t_end - time, dt), ops)
        time = state.time
    state.time = t_end
    return state


@functools.lru_cache(maxsize=4)
def _stationary_nodes(config: ModelConfig, n: int) -> np.ndarray:
    """Closed-form stationary profile at the nodes of the ``n``-node grid,
    read-only."""
    values = stationary.eval_stationary(
        stationary.solve_stationary(config), build_grid(config, n).nodes
    )
    values.flags.writeable = False
    return values


def fourier_reference(config: ModelConfig, eta0: Field, t: float) -> Field:
    """Exact mild solution of the decoupled equation at time ``t``.

    Decomposes the deviation of the initial data from the stationary
    profile into discrete Fourier modes and applies the exact decay
    ``exp(-(sigma*k**2 + alpha)*t)`` per mode.  Defined only for the
    decoupled reduction with positive evaporation.
    """
    if config.mode != "decoupled":
        raise UnsupportedError("reference solution is defined for decoupled mode only")
    if config.alpha <= 0.0:
        raise UnsupportedError("reference solution requires alpha > 0")
    grid = eta0.grid
    s_nodes = _stationary_nodes(config, grid.n)
    sigma_eff, _, _ = effective_parameters(config)

    wavenumbers = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    decay = np.exp(-(sigma_eff * wavenumbers**2 + config.alpha) * t)
    modes = np.fft.fft(eta0.values - s_nodes)
    values = s_nodes + np.fft.ifft(modes * decay).real
    return Field(grid, values, eta0.time + t)
